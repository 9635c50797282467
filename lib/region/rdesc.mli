(** Region descriptors (paper §4.2): the bytecode-level representation of a
    compilation unit.

    A RegionDesc is a CFG whose nodes are basic-block regions (the same
    blocks used for profiling).  Each block carries the four pieces of
    information §4.2 lists: its bytecode instructions (start + length into
    the function body), preconditions (type guards), postconditions, and
    type constraints (Table 1). *)

module R = Hhbc.Rtype

(** VM input locations a guard can test: a frame local, or an eval-stack
    slot ([LStack d] is depth [d] from the stack top at block entry). *)
type loc =
  | LLocal of int
  | LStack of int

val loc_to_string : ?func:Hhbc.Instr.func -> loc -> string

(** Table 1: how much knowledge about an input's type the generated code
    needs, from most relaxed to most restrictive ({!Hhbc.Step}). *)
type type_constraint = Hhbc.Step.type_constraint =
  | Generic               (** do not care about the type at all *)
  | Countness             (** care whether it is ref-counted *)
  | BoxAndCountness       (** ... and whether it is boxed *)
  | BoxAndCountnessInit   (** ... and boxed, and initialized *)
  | Specific              (** care about the specific type *)
  | Specialized           (** ... including class / array kind *)

val constraint_name : type_constraint -> string
val constraint_max : type_constraint -> type_constraint -> type_constraint

(** A precondition: entering the block requires [g_type] at [g_loc]; the
    block's code needs at most [g_constraint] knowledge of it. *)
type guard = {
  g_loc : loc;
  mutable g_type : R.t;
  mutable g_constraint : type_constraint;
}

type block = {
  b_id : int;                                  (** unique across the VM *)
  b_func : int;                                (** function id *)
  b_start : int;                               (** first bytecode pc *)
  b_len : int;                                 (** number of instructions *)
  b_preconds : guard list;
  b_postconds : (loc * R.t) list;              (** known types at exit *)
  b_exit_sp : int;                             (** stack delta entry→exit *)
  b_counter : int option;                      (** profile counter id *)
}

(** A region: blocks + observed control-flow arcs.  Live and profiling
    selectors produce single-block regions (Fig. 5); the profile-guided
    selector stitches many blocks and chains retranslation siblings. *)
type t = {
  r_blocks : block list;                       (** entry block first *)
  r_arcs : (int * int) list;                   (** block id → block id *)
  r_chain_next : (int * int) list;
  (** retranslation chains: on guard failure in block [a], fall through to
      its sibling [b] *)
}

val entry : t -> block
val find_block : t -> int -> block
val succs : t -> int -> int list
val block_to_string : ?func:Hhbc.Instr.func -> block -> string
val to_string : ?func:Hhbc.Instr.func -> t -> string
