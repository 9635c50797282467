(** HipHop Bytecode (HHBC) — the stack-based bytecode that is the interface
    between the ahead-of-time and runtime halves of the VM (paper §2.2).

    Instructions push/pop the evaluation stack and generally transfer
    reference-count ownership with the value (which is why naïve codegen is
    refcount-heavy and RCE matters, §5.3.2).  "Bytecode addresses" are
    instruction indices within a function body; jump targets are absolute
    indices. *)

type local = int

(* The operator sets are {!Runtime.Ops}'s, which defines their semantics. *)
type incdec_op = Runtime.Ops.incdec_op = PostInc | PostDec | PreInc | PreDec

type binop = Runtime.Ops.binop =
  | OpAdd | OpSub | OpMul | OpDiv | OpMod | OpConcat
  | OpEq | OpNeq | OpSame | OpNSame
  | OpLt | OpLte | OpGt | OpGte
  | OpBitAnd | OpBitOr | OpBitXor | OpShl | OpShr

type unop = Runtime.Ops.unop =
  | Not | Neg | BitNot | CastInt | CastDbl | CastString | CastBool

type t =
  (* --- constants --- *)
  | Int of int
  | Dbl of float
  | String of string          (** pushes an uncounted static string *)
  | True
  | False
  | Null
  | NewArray                  (** push a fresh empty array *)
  | AddNewElemC               (** arr v -> arr' : append *)
  | AddElemC                  (** arr k v -> arr' : keyed insert *)
  (* --- locals and stack --- *)
  | CGetL of local            (** push local (incref); fatal on uninit *)
  | PushL of local            (** move local to stack, local becomes uninit *)
  | SetL of local             (** local := top; top stays (incref'd) *)
  | PopC                      (** pop and decref *)
  | Dup                       (** duplicate top (incref) *)
  | IncDecL of local * incdec_op  (** numeric ++/-- on a local; pushes result *)
  | IssetL of local
  | UnsetL of local
  (* --- operators (pop operands, push result) --- *)
  | Binop of binop
  | Unop of unop
  | InstanceOf of string      (** obj/value on stack; pushes bool *)
  (* --- control flow --- *)
  | Jmp of int
  | JmpZ of int               (** pop; jump if falsy *)
  | JmpNZ of int              (** pop; jump if truthy *)
  | RetC                      (** return top of stack *)
  | Throw                     (** pop; raise as exception *)
  (* --- calls --- *)
  | FCall of int * int        (** function id, nargs; args on stack in order *)
  | FCallBuiltin of string * int
  | FCallM of string * int    (** method: receiver under nargs args *)
  | NewObjD of string * int   (** class name, ctor nargs; pushes the object *)
  | This                      (** push $this (incref); fatal if none *)
  (* --- members --- *)
  | QueryM_Elem               (** base k -> v : array element read (incref v) *)
  | QueryM_Prop of string     (** obj -> v : property read *)
  | SetM_ElemL of local       (** k v -> v : $loc[k] = v, with COW *)
  | SetM_NewElemL of local    (** v -> v : $loc[] = v *)
  | UnsetM_ElemL of local     (** k -> : unset($loc[k]) *)
  | SetM_Prop of string       (** obj v -> v : $obj->p = v *)
  | IncDecM_Prop of string * incdec_op (** obj -> result *)
  | IssetM_Elem               (** base k -> bool *)
  | IssetM_Prop of string     (** obj -> bool *)
  | Print                     (** pop and append to the VM output buffer *)
  (* --- iterators (foreach) --- *)
  | IterInit of int * int     (** iter id, done-target; pops the array *)
  | IterKV of int * local option * local  (** load key/value locals for iter *)
  | IterNext of int * int     (** iter id, loop-target *)
  | IterFree of int
  (* --- assertions from hhbbc (paper §2.2): trusted type facts --- *)
  | AssertRATL of local * Rtype.t
  | AssertRATStk of int * Rtype.t
  | Nop

(** Exception-table entry: try-region [start, end_) with a handler. *)
type ex_entry = {
  ex_start : int;
  ex_end : int;
  ex_handler : int;           (** handler entry pc *)
  ex_class : string;          (** catch class name *)
  ex_local : local;           (** local receiving the exception value *)
}

(** Compile-time constants (parameter and property defaults).  Arrays are
    kept as templates and materialized per use site, so the refcount audit
    stays exact. *)
type cval =
  | CNull
  | CBool of bool
  | CInt of int
  | CDbl of float
  | CStr of string
  | CArr of (ckey option * cval) list

and ckey = CKInt of int | CKStr of string

type param_info = {
  pi_name : string;
  pi_hint : Mphp.Ast.hint option;
  pi_default : cval option;
}

(** Flattened-code cache slot.  The VM interpreter lowers [fn_body] into a
    per-function array of pre-bound handler closures (operands, jump
    targets, costs and counter handles all resolved once) and caches the
    result here.  The slot is an extensible variant so hhbc can carry the
    cache without depending on the VM's closure types; [FlatNone] means
    "not flattened".  Any pass that rewrites [fn_body] — in place or by
    replacement — must call {!invalidate_flat}. *)
type flat_cache = ..

type flat_cache += FlatNone

type func = {
  fn_id : int;
  fn_name : string;                (** "Cls::meth" for methods *)
  fn_params : param_info array;
  fn_num_locals : int;
  fn_local_names : string array;   (** index -> name; temps get "@tN" *)
  fn_num_iters : int;
  fn_stack_max : int;              (** static eval-stack bound (emit-time) *)
  fn_params_unhinted : bool;       (** no param carries a type hint: binding
                                       a full argument row is a plain blit *)
  mutable fn_body : t array;
  mutable fn_ex_table : ex_entry list;
  fn_cls : string option;          (** defining class name, for methods *)
  mutable fn_flat : flat_cache;    (** VM-owned flattened-code cache *)
}

let invalidate_flat (f : func) = f.fn_flat <- FlatNone

let is_terminal = function
  | Jmp _ | RetC | Throw -> true
  | _ -> false

(** Instructions that unconditionally or conditionally transfer control. *)
let branch_targets (i : t) : int list =
  match i with
  | Jmp t | JmpZ t | JmpNZ t -> [ t ]
  | IterInit (_, t) | IterNext (_, t) -> [ t ]
  | _ -> []

(* --- dense opcode numbering (telemetry: per-opcode execution counters
   index an array by this id; no hashing on the interpreter hot path).
   [opcode_names] must stay aligned with [opcode_id]. *)

let opcode_id (i : t) : int =
  match i with
  | Int _ -> 0 | Dbl _ -> 1 | String _ -> 2 | True -> 3 | False -> 4
  | Null -> 5 | NewArray -> 6 | AddNewElemC -> 7 | AddElemC -> 8
  | CGetL _ -> 9 | PushL _ -> 10 | SetL _ -> 11 | PopC -> 12 | Dup -> 13
  | IncDecL _ -> 14 | IssetL _ -> 15 | UnsetL _ -> 16 | Binop _ -> 17
  | Unop Not -> 18 | Unop Neg -> 19 | Unop BitNot -> 20 | Unop CastInt -> 21
  | Unop CastDbl -> 22 | Unop CastString -> 23 | Unop CastBool -> 24
  | InstanceOf _ -> 25 | Jmp _ -> 26 | JmpZ _ -> 27 | JmpNZ _ -> 28
  | RetC -> 29 | Throw -> 30 | FCall _ -> 31 | FCallBuiltin _ -> 32
  | FCallM _ -> 33 | NewObjD _ -> 34 | This -> 35 | QueryM_Elem -> 36
  | QueryM_Prop _ -> 37 | SetM_ElemL _ -> 38 | SetM_NewElemL _ -> 39
  | UnsetM_ElemL _ -> 40 | SetM_Prop _ -> 41 | IncDecM_Prop _ -> 42
  | IssetM_Elem -> 43 | IssetM_Prop _ -> 44 | Print -> 45 | IterInit _ -> 46
  | IterKV _ -> 47 | IterNext _ -> 48 | IterFree _ -> 49 | AssertRATL _ -> 50
  | AssertRATStk _ -> 51 | Nop -> 52

let opcode_names : string array = [|
  "Int"; "Dbl"; "String"; "True"; "False"; "Null"; "NewArray";
  "AddNewElemC"; "AddElemC"; "CGetL"; "PushL"; "SetL"; "PopC"; "Dup";
  "IncDecL"; "IssetL"; "UnsetL"; "Binop"; "Not"; "Neg"; "BitNot";
  "CastInt"; "CastDbl"; "CastString"; "CastBool"; "InstanceOf"; "Jmp";
  "JmpZ"; "JmpNZ"; "RetC"; "Throw"; "FCall"; "FCallBuiltin"; "FCallM";
  "NewObjD"; "This"; "QueryM_Elem"; "QueryM_Prop"; "SetM_ElemL";
  "SetM_NewElemL"; "UnsetM_ElemL"; "SetM_Prop"; "IncDecM_Prop";
  "IssetM_Elem"; "IssetM_Prop"; "Print"; "IterInit"; "IterKV"; "IterNext";
  "IterFree"; "AssertRATL"; "AssertRATStk"; "Nop";
|]

let binop_name = function
  | OpAdd -> "Add" | OpSub -> "Sub" | OpMul -> "Mul" | OpDiv -> "Div"
  | OpMod -> "Mod" | OpConcat -> "Concat"
  | OpEq -> "Eq" | OpNeq -> "Neq" | OpSame -> "Same" | OpNSame -> "NSame"
  | OpLt -> "Lt" | OpLte -> "Lte" | OpGt -> "Gt" | OpGte -> "Gte"
  | OpBitAnd -> "BitAnd" | OpBitOr -> "BitOr" | OpBitXor -> "BitXor"
  | OpShl -> "Shl" | OpShr -> "Shr"
