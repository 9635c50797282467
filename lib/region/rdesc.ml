(** Region descriptors (paper §4.2): the bytecode-level representation of a
    compilation unit.

    A RegionDesc is a CFG whose nodes are basic-block regions (the same
    blocks used for profiling).  Each block carries the four pieces of
    information §4.2 lists: its bytecode instructions (start + length into
    the function body), preconditions (type guards), postconditions, and
    type constraints (Table 1). *)

module R = Hhbc.Rtype

(** VM input locations a guard can test: a frame local, or an eval-stack
    slot ([LStack d] = depth d from the top of the stack at block entry). *)
type loc =
  | LLocal of int
  | LStack of int

let loc_to_string ?func (l : loc) =
  match l with
  | LLocal i ->
    (match func with
     | Some f -> Printf.sprintf "L:%d ($%s)" i (Hhbc.Disasm.local_name f i)
     | None -> Printf.sprintf "L:%d" i)
  | LStack d -> Printf.sprintf "S:%d" d

(** Table 1, re-exported from the step function that raises it. *)
type type_constraint = Hhbc.Step.type_constraint =
  | Generic | Countness | BoxAndCountness | BoxAndCountnessInit
  | Specific | Specialized

let constraint_name = Hhbc.Step.constraint_name
let constraint_max = Hhbc.Step.constraint_max

(** A precondition: entering the block requires [g_type] at [g_loc]; the
    block's code needs at most [g_constraint] knowledge of it. *)
type guard = {
  g_loc : loc;
  mutable g_type : R.t;
  mutable g_constraint : type_constraint;
}

type block = {
  b_id : int;                                  (* unique across the VM *)
  b_func : int;                                (* function id *)
  b_start : int;                               (* first bytecode pc *)
  b_len : int;                                 (* number of instructions *)
  b_preconds : guard list;
  b_postconds : (loc * R.t) list;              (* known types at exit *)
  b_exit_sp : int;                             (* stack delta entry->exit *)
  b_counter : int option;                      (* Prof counter id *)
}

(** A region: blocks + observed control-flow arcs.  Live and profiling
    selectors produce single-block regions (Fig. 5); the profile-guided
    selector stitches many blocks. *)
type t = {
  r_blocks : block list;                       (* entry block first *)
  r_arcs : (int * int) list;                   (* block id -> block id *)
  r_chain_next : (int * int) list;             (* retranslation chains: on
                                                  guard failure in block a,
                                                  fall through to block b *)
}

let entry (r : t) : block = List.hd r.r_blocks

let find_block (r : t) (id : int) : block =
  List.find (fun b -> b.b_id = id) r.r_blocks

let succs (r : t) (id : int) : int list =
  List.filter_map (fun (s, d) -> if s = id then Some d else None) r.r_arcs

let block_to_string ?func (b : block) : string =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "B%d (func %d, bc [%d,%d)):\n" b.b_id b.b_func b.b_start
       (b.b_start + b.b_len));
  List.iter
    (fun g ->
       Buffer.add_string buf
         (Printf.sprintf "  guard  %s : %s (%s)\n"
            (loc_to_string ?func g.g_loc) (R.to_string g.g_type)
            (constraint_name g.g_constraint)))
    b.b_preconds;
  List.iter
    (fun (l, t) ->
       Buffer.add_string buf
         (Printf.sprintf "  post   %s : %s\n" (loc_to_string ?func l) (R.to_string t)))
    b.b_postconds;
  Buffer.contents buf

let to_string ?func (r : t) : string =
  String.concat ""
    (List.map (block_to_string ?func) r.r_blocks)
  ^ String.concat ""
      (List.map (fun (a, b) -> Printf.sprintf "  arc B%d -> B%d\n" a b) r.r_arcs)
