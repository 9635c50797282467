(** Assembled translations: Vasm after register allocation, placed at
    concrete byte addresses in the code cache. *)

open Vasm.Vinstr

type kind = KLive | KProfiling | KOptimized

let kind_name = function
  | KLive -> "live" | KProfiling -> "profiling" | KOptimized -> "optimized"

(* Where a run's cycles are attributed on its machine (Fig. 9's
   live/optimized split). *)
let attribute : kind -> Exec.machine -> int -> unit = function
  | KLive -> fun m c -> m.cycles_live <- m.cycles_live + c
  | KProfiling -> fun m c -> m.cycles_prof <- m.cycles_prof + c
  | KOptimized -> fun m c -> m.cycles_opt <- m.cycles_opt + c

(** An engine entry point: the region block whose preconditions gate entry,
    the instruction index to start at, and the block's guards in array form
    (precomputed so the engine's per-entry guard walk is allocation-free
    and knows its length without re-walking a list). *)
type entry = {
  en_block : Region.Rdesc.block;
  en_idx : int;
  en_guards : Region.Rdesc.guard array;
}

type t = {
  tr_id : int;
  tr_fid : int;
  tr_srckey : int;                      (* entry bytecode pc *)
  tr_kind : kind;
  (* the executable form, lowered once at placement; it holds the byte
     address of each instruction and the exec/cycle telemetry *)
  tr_prog : Exec.prog;
  (* entry chain: engine checks preconditions and enters at the index *)
  tr_entries : entry array;
  tr_exits : Hhir.Ir.exit_spec array;
  (* per-exit link slots (§4.3 bind-jump smashing): once a ReqBind exit
     resolves to a target translation entry, the engine memoizes it here so
     later exits chain directly.  [lk_gen] ties the link to the engine's
     translation-table generation; retranslate-all bumps the generation,
     which unsmashes every link at once. *)
  tr_links : link array;
  tr_loc : (int, Vasm.Regalloc.operand) Hashtbl.t;  (* vreg -> location *)
  tr_bytes : int;                       (* total code bytes *)
  (* code-cache lifecycle (liveness-driven eviction + compaction).  The
     extent bases let [relocate] rebase the addresses without re-deriving
     the layout; the liveness triple implements exec-count decay across
     lifecycle ticks (score halves each tick, fresh execs are added). *)
  tr_hot_bytes : int;
  tr_cold_bytes : int;
  mutable tr_hot_base : int;
  mutable tr_cold_base : int;           (* 0 when the cold extent is empty *)
  mutable tr_live_score : int;          (* decayed exec count *)
  mutable tr_exec_mark : int;           (* execs at the last decay tick *)
  mutable tr_age : int;                 (* decay ticks survived *)
  mutable tr_evicted : bool;
}

and link = {
  mutable lk_gen : int;                 (* generation the link was made in *)
  mutable lk_target : (t * entry) option;
}

(** Type-level entry check for lazy-translation dedup: would this entry's
    guards pass for a frame whose locals and stack have these
    (most-precise) types?  [stack] is indexed by depth, element [d]
    typing stack slot [sp - 1 - d] — the shape a translation request
    captures.  Mirrors the engine's [guard_matches] against live values:
    a guard on a location past the captured stack fails there too. *)
let entry_covers ~(locals : Hhbc.Rtype.t array)
    ~(stack : Hhbc.Rtype.t array) (en : entry) : bool =
  Array.for_all
    (fun (g : Region.Rdesc.guard) ->
       match g.Region.Rdesc.g_loc with
       | Region.Rdesc.LLocal l ->
         l < Array.length locals
         && Hhbc.Rtype.subtype locals.(l) g.Region.Rdesc.g_type
       | Region.Rdesc.LStack d ->
         d < Array.length stack
         && Hhbc.Rtype.subtype stack.(d) g.Region.Rdesc.g_type)
    en.en_guards

let next_id = ref 0

(* global inline-cache id allocator.  Lowering numbers CallMethodCached
   sites 0.. within each compilation unit (so workers need no shared
   counter); [place] maps them to process-global ids in publish order,
   keeping the engine's dense method-cache array deterministic for any
   worker count. *)
let next_cache_id = ref 0

(** Reset the translation-id and inline-cache-id allocators.  Called by
    [Engine.install] so ids (visible in tc-print reports) restart per
    engine and sequential runs produce identical reports. *)
let reset_ids () =
  next_id := 0;
  next_cache_id := 0

(** A translation compiled but not yet placed: code in layout order with
    section-relative offsets.  Contains no code-cache addresses, ids, or
    other global state — building one is side-effect free, so JIT workers
    prepare translations in parallel and the main domain [place]s them
    serially in deterministic order. *)
type prepared = {
  pr_fid : int;
  pr_srckey : int;
  pr_kind : kind;
  pr_code : Vasm.Regalloc.operand Vasm.Vinstr.t array;
  pr_off : int array;                   (* offset within its section *)
  pr_cold : bool array;                 (* instruction goes to Cold *)
  pr_hot_bytes : int;
  pr_cold_bytes : int;
  pr_entries : entry array;
  pr_exits : Hhir.Ir.exit_spec array;
  pr_loc : (int, Vasm.Regalloc.operand) Hashtbl.t;
  pr_nslots : int;
  pr_label_index : (int, int) Hashtbl.t;
  pr_ncache : int;                      (* unit-local inline-cache ids used *)
}

(** Lay out a register-allocated program relative to its sections.  Pure
    with respect to engine/process state: safe on any domain. *)
let prepare ~(fid : int) ~(srckey : int) ~(kind : kind)
    ~(ra : Vasm.Regalloc.result)
    ~(sections : (int, Vasm.Layout.section) Hashtbl.t)
    ~(entries : (Region.Rdesc.block * int) list)   (* block, IR block id *)
  : prepared =
  let p = ra.ra_prog in
  let section_of vb =
    match kind with
    | KProfiling -> Simcpu.Codecache.Prof
    | KLive -> Simcpu.Codecache.Live
    | KOptimized ->
      (match Hashtbl.find_opt sections vb.vb_id with
       | Some Vasm.Layout.Cold -> Simcpu.Codecache.Cold
       | _ -> Simcpu.Codecache.Main)
  in
  (* split blocks by target section, preserving layout order *)
  let hot, cold =
    List.partition (fun vb -> section_of vb <> Simcpu.Codecache.Cold) p.vblocks
  in
  let section_bytes bl =
    List.fold_left
      (fun acc vb ->
         acc + List.fold_left (fun a i -> a + size_bytes i) 0 vb.vb_instrs)
      0 bl
  in
  let hot_bytes = section_bytes hot and cold_bytes = section_bytes cold in
  let code = ref [] and offs = ref [] and colds = ref [] in
  let label_index = Hashtbl.create 16 in
  let idx = ref 0 in
  let layout ~in_cold bl =
    let cursor = ref 0 in
    List.iter
      (fun vb ->
         Hashtbl.replace label_index vb.vb_id !idx;
         List.iter
           (fun i ->
              code := i :: !code;
              offs := !cursor :: !offs;
              colds := in_cold :: !colds;
              cursor := !cursor + size_bytes i;
              incr idx)
           vb.vb_instrs)
      bl
  in
  layout ~in_cold:false hot;
  layout ~in_cold:true cold;
  (* empty blocks at the end of a section: map their labels to the end
     of the code (they would fall through; lower_bc never produces
     them, but jumpopt stripping can leave an empty final block) *)
  List.iter
    (fun vb ->
       if not (Hashtbl.mem label_index vb.vb_id) then
         Hashtbl.replace label_index vb.vb_id !idx)
    p.vblocks;
  let pr_entries =
    Array.of_list
      (List.map
         (fun ((rb : Region.Rdesc.block), irb) ->
            let i =
              match Hashtbl.find_opt label_index irb with
              | Some i -> i
              | None -> 0
            in
            { en_block = rb; en_idx = i;
              en_guards = Array.of_list rb.b_preconds })
         entries)
  in
  let pr_code = Array.of_list (List.rev !code) in
  let pr_ncache =
    Array.fold_left
      (fun acc i ->
         match i with
         | VHelper (HCallMethodCached (_, cid), _, _, _) -> max acc (cid + 1)
         | _ -> acc)
      0 pr_code
  in
  { pr_fid = fid;
    pr_srckey = srckey;
    pr_kind = kind;
    pr_code;
    pr_off = Array.of_list (List.rev !offs);
    pr_cold = Array.of_list (List.rev !colds);
    pr_hot_bytes = hot_bytes;
    pr_cold_bytes = cold_bytes;
    pr_entries;
    pr_exits = p.vexits;
    pr_loc = ra.ra_loc;
    pr_nslots = ra.ra_nslots;
    pr_label_index = label_index;
    pr_ncache }

(** Place a prepared translation into the code cache: allocate its section
    extents, compute absolute instruction addresses, map unit-local
    inline-cache ids to global ones, assign the translation id, and lower
    the code once to the prog Exec runs.
    Serial (main domain) only.  Returns None when the code budget is
    exhausted — the hot allocation stays consumed in that case, matching
    the historical budget accounting. *)
let place ~(cache : Simcpu.Codecache.t) (pr : prepared) : t option =
  let hot_sec = match pr.pr_kind with
    | KProfiling -> Simcpu.Codecache.Prof
    | KLive -> Simcpu.Codecache.Live
    | KOptimized -> Simcpu.Codecache.Main
  in
  match Simcpu.Codecache.alloc cache hot_sec pr.pr_hot_bytes with
  | None -> None
  | Some hot_base ->
    let cold_base =
      if pr.pr_cold_bytes = 0 then Some 0
      else Simcpu.Codecache.alloc cache Simcpu.Codecache.Cold pr.pr_cold_bytes
    in
    match cold_base with
    | None -> None
    | Some cold_base ->
      let addr =
        Array.mapi
          (fun i off -> off + (if pr.pr_cold.(i) then cold_base else hot_base))
          pr.pr_off
      in
      let code =
        if pr.pr_ncache = 0 then pr.pr_code
        else begin
          let base = !next_cache_id in
          next_cache_id := base + pr.pr_ncache;
          Array.map
            (function
              | VHelper (HCallMethodCached (m, cid), args, ret, fr) ->
                VHelper (HCallMethodCached (m, base + cid), args, ret, fr)
              | i -> i)
            pr.pr_code
        end
      in
      incr next_id;
      Some { tr_id = !next_id;
             tr_fid = pr.pr_fid;
             tr_srckey = pr.pr_srckey;
             tr_kind = pr.pr_kind;
             tr_prog =
               Exec.flatten ~id:!next_id ~fid:pr.pr_fid ~srckey:pr.pr_srckey
                 ~kind_name:(kind_name pr.pr_kind)
                 ~attribute:(attribute pr.pr_kind) ~code ~addr
                 ~labels:pr.pr_label_index ~nslots:pr.pr_nslots;
             tr_entries = pr.pr_entries;
             tr_exits = pr.pr_exits;
             tr_links =
               Array.init (Array.length pr.pr_exits)
                 (fun _ -> { lk_gen = -1; lk_target = None });
             tr_loc = pr.pr_loc;
             tr_bytes = pr.pr_hot_bytes + pr.pr_cold_bytes;
             tr_hot_bytes = pr.pr_hot_bytes;
             tr_cold_bytes = pr.pr_cold_bytes;
             tr_hot_base = hot_base;
             tr_cold_base = cold_base;
             tr_live_score = 0;
             tr_exec_mark = 0;
             tr_age = 0;
             tr_evicted = false }

(** Re-place an already-placed translation at the current section cursors
    (TC compaction).  Allocates fresh extents and rewrites the prog's
    addresses in place: links, mono caches, and published epoch rows all
    hold the translation {e object}, so the move is visible everywhere at
    once — the relocation map is the object graph itself, with no per-site
    fixups.  Ids, inline-cache ids, and code are untouched.  Returns
    false only if the budget refuses the allocation (it cannot when
    compacting survivors into space they already occupied). *)
let relocate ~(cache : Simcpu.Codecache.t) (tr : t) : bool =
  let hot_sec = match tr.tr_kind with
    | KProfiling -> Simcpu.Codecache.Prof
    | KLive -> Simcpu.Codecache.Live
    | KOptimized -> Simcpu.Codecache.Main
  in
  (* The compactor is already rewriting every address, so it can afford
     what the bump allocator skips at first emission: starting each hot
     extent on an i-cache line, so a relocated translation spans the
     minimal number of lines (and never re-straddles a line or page
     boundary a hole's worth of drift would have pushed it across). *)
  Simcpu.Codecache.align_cursor cache hot_sec 64;
  match Simcpu.Codecache.alloc cache hot_sec tr.tr_hot_bytes with
  | None -> false
  | Some hot_base ->
    let cold_base =
      if tr.tr_cold_bytes = 0 then Some 0
      else Simcpu.Codecache.alloc cache Simcpu.Codecache.Cold tr.tr_cold_bytes
    in
    match cold_base with
    | None -> false
    | Some cold_base ->
      let old_hot = tr.tr_hot_base and old_cold = tr.tr_cold_base in
      let in_cold a =
        tr.tr_cold_bytes > 0
        && a >= old_cold && a < old_cold + tr.tr_cold_bytes
      in
      let addr = tr.tr_prog.Exec.pg_addr in
      for i = 0 to Array.length addr - 1 do
        let a = addr.(i) in
        addr.(i) <-
          (if in_cold a then a - old_cold + cold_base
           else a - old_hot + hot_base)
      done;
      tr.tr_hot_base <- hot_base;
      tr.tr_cold_base <- cold_base;
      true
