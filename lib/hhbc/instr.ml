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
  | CGetL2 of local           (** push local *under* the current top *)
  | CGetQuietL of local       (** push local, Null if uninit (isset-style read) *)
  | PushL of local            (** move local to stack, local becomes uninit *)
  | SetL of local             (** local := top; top stays (incref'd) *)
  | PopL of local             (** pop into local *)
  | PopC                      (** pop and decref *)
  | Dup                       (** duplicate top (incref) *)
  | IncDecL of local * incdec_op  (** numeric ++/-- on a local; pushes result *)
  | IssetL of local
  | UnsetL of local
  (* --- operators (pop operands, push result) --- *)
  | Binop of binop
  | Unop of unop
  | InstanceOf of string      (** obj/value on stack; pushes bool *)
  | IsTypeL of local * Runtime.Value.tag  (** is_int($x) etc., no incref *)
  (* --- control flow --- *)
  | Jmp of int
  | JmpZ of int               (** pop; jump if falsy *)
  | JmpNZ of int              (** pop; jump if truthy *)
  | RetC                      (** return top of stack *)
  | Throw                     (** pop; raise as exception *)
  | Fatal of string
  (* --- calls --- *)
  | FCall of int * int        (** function id, nargs; args on stack in order *)
  | FCallD of string * int    (** unresolved direct call by name (late bound) *)
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
  | Jmp _ | RetC | Throw | Fatal _ -> true
  | _ -> false

(** Instructions that unconditionally or conditionally transfer control. *)
let branch_targets (i : t) : int list =
  match i with
  | Jmp t | JmpZ t | JmpNZ t -> [ t ]
  | IterInit (_, t) | IterNext (_, t) -> [ t ]
  | _ -> []

(** Net evaluation-stack effect (pushes minus pops) of one instruction. *)
let stack_effect (i : t) : int =
  match i with
  | Int _ | Dbl _ | String _ | True | False | Null | NewArray -> 1
  | AddNewElemC -> -1
  | AddElemC -> -2
  | CGetL _ | CGetQuietL _ | PushL _ | CGetL2 _ -> 1
  | SetL _ | UnsetL _ -> 0
  | PopL _ | PopC -> -1
  | Dup | IncDecL _ | IssetL _ | IsTypeL _ -> 1
  | Binop _ -> -1
  | Unop _ | InstanceOf _ -> 0
  | Jmp _ -> 0
  | JmpZ _ | JmpNZ _ -> -1
  | RetC | Throw -> -1
  | Fatal _ -> 0
  | FCall (_, n) | FCallD (_, n) | FCallBuiltin (_, n) | NewObjD (_, n) ->
    1 - n
  | FCallM (_, n) -> -n            (* receiver + n args popped, result pushed *)
  | This -> 1
  | QueryM_Elem -> -1
  | QueryM_Prop _ -> 0
  | SetM_ElemL _ -> -1
  | SetM_NewElemL _ -> 0
  | UnsetM_ElemL _ -> -1
  | SetM_Prop _ -> -1
  | IncDecM_Prop _ -> 0
  | IssetM_Elem -> -1
  | IssetM_Prop _ -> 0
  | Print -> -1
  | IterInit _ -> -1
  | IterKV _ | IterNext _ | IterFree _ -> 0
  | AssertRATL _ | AssertRATStk _ | Nop -> 0

(** Static evaluation-stack bound for a body: forward dataflow over stack
    effects (branch targets carry the post-instruction depth; exception
    handlers enter on an empty stack).  The interpreter sizes frame
    stacks from this instead of a blanket worst case; hhbbc's rewrites
    never deepen the stack (asserts are effect-free, jump rewrites only
    redirect), so the bound computed at emit time stays valid. *)
let max_stack_depth (code : t array) (ex : ex_entry list) : int =
  let n = Array.length code in
  if n = 0 then 0
  else begin
    let cap = n + 8 in          (* well-formed code never outgrows this *)
    let depth = Array.make n (-1) in
    let maxd = ref 0 in
    let work = Queue.create () in
    let visit pc d =
      if pc >= 0 && pc < n && d > depth.(pc) then begin
        depth.(pc) <- d;
        Queue.add pc work
      end
    in
    visit 0 0;
    List.iter (fun e -> visit e.ex_handler 0) ex;
    (try
       while not (Queue.is_empty work) do
         let pc = Queue.pop work in
         let d = depth.(pc) in
         let i = code.(pc) in
         let d' = d + stack_effect i in
         if d' > !maxd then maxd := d';
         if !maxd > cap then raise Exit;
         List.iter (fun t -> visit t d') (branch_targets i);
         if not (is_terminal i) then visit (pc + 1) d'
       done
     with Exit -> maxd := cap);
    !maxd
  end

(* --- dense opcode numbering (telemetry: per-opcode execution counters
   index an array by this id; no hashing on the interpreter hot path).
   [opcode_names] must stay aligned with [opcode_id]. *)

let opcode_id (i : t) : int =
  match i with
  | Int _ -> 0 | Dbl _ -> 1 | String _ -> 2 | True -> 3 | False -> 4
  | Null -> 5 | NewArray -> 6 | AddNewElemC -> 7 | AddElemC -> 8
  | CGetL _ -> 9 | CGetL2 _ -> 10 | CGetQuietL _ -> 11 | PushL _ -> 12
  | SetL _ -> 13 | PopL _ -> 14 | PopC -> 15 | Dup -> 16 | IncDecL _ -> 17
  | IssetL _ -> 18 | UnsetL _ -> 19 | Binop _ -> 20 | Unop Not -> 21
  | Unop Neg -> 22 | Unop BitNot -> 23 | Unop CastInt -> 24
  | Unop CastDbl -> 25 | Unop CastString -> 26 | Unop CastBool -> 27
  | InstanceOf _ -> 28 | IsTypeL _ -> 29 | Jmp _ -> 30
  | JmpZ _ -> 31 | JmpNZ _ -> 32 | RetC -> 33 | Throw -> 34 | Fatal _ -> 35
  | FCall _ -> 36 | FCallD _ -> 37 | FCallBuiltin _ -> 38 | FCallM _ -> 39
  | NewObjD _ -> 40 | This -> 41 | QueryM_Elem -> 42 | QueryM_Prop _ -> 43
  | SetM_ElemL _ -> 44 | SetM_NewElemL _ -> 45 | UnsetM_ElemL _ -> 46
  | SetM_Prop _ -> 47 | IncDecM_Prop _ -> 48 | IssetM_Elem -> 49
  | IssetM_Prop _ -> 50 | Print -> 51 | IterInit _ -> 52 | IterKV _ -> 53
  | IterNext _ -> 54 | IterFree _ -> 55 | AssertRATL _ -> 56
  | AssertRATStk _ -> 57 | Nop -> 58

let opcode_names : string array = [|
  "Int"; "Dbl"; "String"; "True"; "False"; "Null"; "NewArray";
  "AddNewElemC"; "AddElemC"; "CGetL"; "CGetL2"; "CGetQuietL"; "PushL";
  "SetL"; "PopL"; "PopC"; "Dup"; "IncDecL"; "IssetL"; "UnsetL"; "Binop";
  "Not"; "Neg"; "BitNot"; "CastInt"; "CastDbl"; "CastString"; "CastBool";
  "InstanceOf"; "IsTypeL"; "Jmp"; "JmpZ"; "JmpNZ"; "RetC"; "Throw";
  "Fatal"; "FCall"; "FCallD"; "FCallBuiltin"; "FCallM"; "NewObjD"; "This";
  "QueryM_Elem"; "QueryM_Prop"; "SetM_ElemL"; "SetM_NewElemL";
  "UnsetM_ElemL"; "SetM_Prop"; "IncDecM_Prop"; "IssetM_Elem";
  "IssetM_Prop"; "Print"; "IterInit"; "IterKV"; "IterNext"; "IterFree";
  "AssertRATL"; "AssertRATStk"; "Nop";
|]

let opcode_count = Array.length opcode_names

let binop_name = function
  | OpAdd -> "Add" | OpSub -> "Sub" | OpMul -> "Mul" | OpDiv -> "Div"
  | OpMod -> "Mod" | OpConcat -> "Concat"
  | OpEq -> "Eq" | OpNeq -> "Neq" | OpSame -> "Same" | OpNSame -> "NSame"
  | OpLt -> "Lt" | OpLte -> "Lte" | OpGt -> "Gt" | OpGte -> "Gte"
  | OpBitAnd -> "BitAnd" | OpBitOr -> "BitOr" | OpBitXor -> "BitXor"
  | OpShl -> "Shl" | OpShr -> "Shr"
