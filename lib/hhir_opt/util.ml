(** Shared infrastructure for HHIR passes. *)

open Hhir.Ir

(** Apply a tmp substitution to every instruction argument, exit spec, and
    fixup in the unit. *)
let substitute (u : t) (subst : tmp -> tmp) : unit =
  List.iter
    (fun (_, b) ->
       List.iter (fun i -> i.i_args <- List.map subst i.i_args) b.b_instrs)
    u.blocks;
  u.exits <-
    List.map
      (fun es ->
         { es with
           es_inline =
             Option.map
               (fun ie ->
                  { ie with
                    ie_this = Option.map subst ie.ie_this;
                    ie_locals = List.map (fun (l, t) -> (l, subst t)) ie.ie_locals;
                    ie_stack = List.map subst ie.ie_stack })
               es.es_inline })
      u.exits

(** All tmps referenced outside instruction dsts (args + exit metadata). *)
let used_tmps (u : t) : (int, unit) Hashtbl.t =
  let used = Hashtbl.create 64 in
  let mark (t : tmp) = Hashtbl.replace used t.t_id () in
  List.iter
    (fun (_, b) -> List.iter (fun i -> List.iter mark i.i_args) b.b_instrs)
    u.blocks;
  List.iter
    (fun es ->
       match es.es_inline with
       | Some ie ->
         Option.iter mark ie.ie_this;
         List.iter (fun (_, t) -> mark t) ie.ie_locals;
         List.iter mark ie.ie_stack
       | None -> ())
    u.exits;
  used

(** Successor block ids of a block (via i_taken of branches/jumps). *)
let succs (u : t) (b : block) : int list =
  List.filter_map
    (fun i ->
       match i.i_op with
       | ReqBind _ -> None          (* taken is an exit id, not a block *)
       | _ -> i.i_taken)
    b.b_instrs
  |> List.filter (fun id -> List.mem_assoc id u.blocks)

