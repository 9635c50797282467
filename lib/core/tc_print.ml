(** tc-print: the translation-cache inspector (HHVM's tc-print tool,
    scaled to this substrate).

    Walks the engine's translation tables and ranks translations by
    execution count (ties broken by simulated cycles).  For each ranked
    translation it prints identity (id, kind, function, srckey, bytes),
    runtime weight (execs, cycles), region provenance (the profiling
    blocks behind each entry), per-entry guard chains, and the link state
    of every ReqBind exit (smashed target / stale / unsmashed). *)

module Rd = Region.Rdesc

(** Unique translations currently published in the engine's tables. *)
let collect (eng : Engine.t) : Translation.t list =
  let seen = Hashtbl.create 256 in
  let acc = ref [] in
  Array.iter
    (fun row ->
       Array.iter
         (function
           | Some (sl : Engine.slot) ->
             for i = 0 to sl.Engine.sl_len - 1 do
               let tr = sl.Engine.sl_chain.(i) in
               if not (Hashtbl.mem seen tr.Translation.tr_id) then begin
                 Hashtbl.replace seen tr.Translation.tr_id ();
                 acc := tr :: !acc
               end
             done
           | None -> ())
         row)
    eng.Engine.trans;
  !acc

(** Ranking modes: by execution count, by accumulated simulated cycles,
    or coldest-first by decayed liveness score (the eviction policy's
    view — what a lifecycle tick would reap next, oldest first among
    equally cold code).  All are total orders with a final tie on
    translation id (ids are assigned in a canonical order), so a report
    is byte-stable across runs and worker counts. *)
type sort_mode = By_execs | By_cycles | By_cold

let sort_mode_name = function
  | By_execs -> "execs" | By_cycles -> "cycles" | By_cold -> "cold"

(* ranks by the counts folded into [mc], the engine's machine *)
let compare_by (mc : Exec.machine) (m : sort_mode) (a : Translation.t)
    (b : Translation.t) : int =
  let execs (t : Translation.t) = Exec.execs mc t.Translation.tr_prog
  and cycles (t : Translation.t) = Exec.cycles_in mc t.Translation.tr_prog in
  let primary, secondary =
    match m with
    | By_execs ->
      (compare (execs b) (execs a), compare (cycles b) (cycles a))
    | By_cycles ->
      (compare (cycles b) (cycles a), compare (execs b) (execs a))
    | By_cold ->
      (compare a.Translation.tr_live_score b.Translation.tr_live_score,
       compare b.Translation.tr_age a.Translation.tr_age)
  in
  match primary with
  | 0 ->
    (match secondary with
     | 0 -> compare a.Translation.tr_id b.Translation.tr_id
     | c -> c)
  | c -> c

let guard_to_string (func : Hhbc.Instr.func) (g : Rd.guard) : string =
  Printf.sprintf "%s:%s<%s>"
    (Rd.loc_to_string ~func g.Rd.g_loc)
    (Hhbc.Rtype.to_string g.Rd.g_type)
    (Rd.constraint_name g.Rd.g_constraint)

(** Render the top-[top] translations, hottest first under [sort]
    (default: by execution count). *)
let report ?(top = 20) ?(sort = By_execs) (eng : Engine.t) : string =
  let u = eng.Engine.hunit in
  let mc = eng.Engine.machine in
  let trs = List.sort (compare_by mc sort) (collect eng) in
  let total = List.length trs in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "--- tc-print: %d translations, generation %d, top %d by %s ---\n"
       total eng.Engine.generation (min top total) (sort_mode_name sort));
  List.iteri
    (fun rank (tr : Translation.t) ->
       if rank < top then begin
         let f = Hhbc.Hunit.func u tr.Translation.tr_fid in
         Buffer.add_string buf
           (Printf.sprintf
              "#%-3d tr=%-4d %-9s %s@%d  bytes=%-5d execs=%-8d cycles=%-10d \
               live=%-6d age=%d\n"
              (rank + 1) tr.Translation.tr_id
              (Translation.kind_name tr.Translation.tr_kind)
              f.Hhbc.Instr.fn_name tr.Translation.tr_srckey
              tr.Translation.tr_bytes (Exec.execs mc tr.Translation.tr_prog)
              (Exec.cycles_in mc tr.Translation.tr_prog)
              tr.Translation.tr_live_score
              tr.Translation.tr_age);
         Buffer.add_string buf
           (Printf.sprintf "      region: [%s]\n"
              (String.concat "; "
                 (Array.to_list tr.Translation.tr_entries
                  |> List.map
                    (fun (en : Translation.entry) ->
                       let b = en.Translation.en_block in
                       Printf.sprintf "B%d pc=%d len=%d" b.Rd.b_id
                         b.Rd.b_start b.Rd.b_len))));
         Array.iter
           (fun (en : Translation.entry) ->
              let b = en.Translation.en_block in
              let gs = Array.to_list en.Translation.en_guards in
              Buffer.add_string buf
                (Printf.sprintf "      entry B%d guards: %s\n" b.Rd.b_id
                   (if gs = [] then "(none)"
                    else String.concat ", "
                        (List.map (guard_to_string f) gs))))
           tr.Translation.tr_entries;
         Array.iteri
           (fun eid (lk : Translation.link) ->
              let es : Hhir.Ir.exit_spec = tr.Translation.tr_exits.(eid) in
              let state =
                match lk.Translation.lk_target with
                | Some (dst, en)
                  when lk.Translation.lk_gen = eng.Engine.generation ->
                  Printf.sprintf "linked -> tr=%d entry B%d"
                    dst.Translation.tr_id
                    en.Translation.en_block.Rd.b_id
                | Some _ -> "stale (previous generation)"
                | None -> "unsmashed"
              in
              Buffer.add_string buf
                (Printf.sprintf "      exit %d pc=%d: %s\n" eid es.es_pc
                   state))
           tr.Translation.tr_links
       end)
    trs;
  Buffer.contents buf
