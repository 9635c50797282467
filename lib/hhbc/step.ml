(** One abstract step per bytecode, written once.

    hhbbc's inference (paper §2.3) and tracelet selection (§4.1) are two
    abstract interpretations of the same bytecode over the same {!Rtype}
    lattice.  Both run {!step}: for each opcode it pops the operands,
    pushes the results with their types, and writes the locals the opcode
    writes.  What differs between the clients is their [machine]:

    - the abstract value ['v].  hhbbc's is a bare type; the selector's is a
      type together with the guard it came from, so that later uses can
      raise that guard's constraint;
    - what a local read or a pop below the known stack yields.  hhbbc reads
      its state; the selector guards the input on its first touch;
    - [use], called once per operand use with the Table 1 constraint that
      use needs.  The selector raises the value's guard to it; hhbbc
      ignores it.

    {!max_stack_depth} counts pops and pushes with the same step, and
    [test/test_ops.ml] checks every pushed type and written local against
    the interpreter. *)

module R = Rtype
open Instr

(** Table 1: how much knowledge about an input's type the generated code
    needs.  Ordered from most relaxed to most restrictive. *)
type type_constraint =
  | Generic               (** do not care about the type at all *)
  | Countness             (** care whether it is ref-counted *)
  | BoxAndCountness       (** ... and whether it is boxed *)
  | BoxAndCountnessInit   (** ... and boxed, and initialized *)
  | Specific              (** care about the specific type *)
  | Specialized           (** ... including class / array kind *)

let constraint_rank = function
  | Generic -> 0 | Countness -> 1 | BoxAndCountness -> 2
  | BoxAndCountnessInit -> 3 | Specific -> 4 | Specialized -> 5

let constraint_name = function
  | Generic -> "Generic" | Countness -> "Countness"
  | BoxAndCountness -> "BoxAndCountness"
  | BoxAndCountnessInit -> "BoxAndCountnessInit"
  | Specific -> "Specific" | Specialized -> "Specialized"

let constraint_max a b =
  if constraint_rank a >= constraint_rank b then a else b

(** A client's abstract machine. *)
type 'v machine = {
  mutable stack : 'v list;              (** the known stack, top first *)
  underflow : unit -> 'v;               (** a pop below the known stack *)
  local : int -> 'v;                    (** read a local *)
  set_local : int -> 'v -> unit;
  use : 'v -> type_constraint -> unit;  (** an operand use needs this much *)
  ty : 'v -> R.t;
  narrow : 'v -> R.t -> 'v;             (** the same value, met with a type *)
  value : R.t -> 'v;                    (** a new value written to a local *)
  result : R.t -> 'v;                   (** a new value the step pushes *)
}

(** A machine over bare types, with no use constraints: hhbbc's, the
    stack bound's and the step sweep's.  The known stack starts empty. *)
let typed ~underflow ~local ~set_local : R.t machine =
  { stack = []; underflow; local; set_local;
    use = (fun _ _ -> ()); ty = Fun.id; narrow = R.meet;
    value = Fun.id; result = Fun.id }

let pop m =
  match m.stack with
  | v :: rest -> m.stack <- rest; v
  | [] -> m.underflow ()

let push m v = m.stack <- v :: m.stack
let result m t = push m (m.result t)

(* call arguments: [n] pops, each used with [c] *)
let pop_args m n c = for _ = 1 to n do m.use (pop m) c done

(** [step m ~cls i] runs [i] on [m].  [cls] is the class of the function
    [i] is in, which types [This].  Operands are popped and locals read in
    the order the code that runs them does, so a client that guards inputs
    on first touch guards them in that order. *)
let step (m : 'v machine) ~(cls : string option) (i : Instr.t) : unit =
  match i with
  (* ---- constants ---- *)
  | Int _ -> result m R.int
  | Dbl _ -> result m R.dbl
  | String _ -> result m R.sstr
  | True | False -> result m R.bool
  | Null -> result m R.init_null
  | NewArray -> result m R.packed_arr
  | AddNewElemC ->
    let v = pop m in
    let a = pop m in
    m.use v Countness;
    m.use a Specialized;
    (* appending keeps packedness *)
    result m (R.meet (m.ty a) R.arr)
  | AddElemC ->
    let v = pop m in
    let k = pop m in
    let a = pop m in
    m.use v Countness;
    m.use k Specific;
    m.use a Specialized;
    result m (R.make R.b_arr)
  (* ---- locals and stack ---- *)
  | CGetL l ->
    let v = m.local l in
    m.use v BoxAndCountnessInit;            (* incref + init check *)
    push m (m.narrow v R.init_cell)
  | PushL l ->
    let v = m.local l in
    m.use v BoxAndCountnessInit;
    m.set_local l (m.value R.uninit);
    push m (m.narrow v R.init_cell)
  | SetL l ->
    m.use (m.local l) BoxAndCountness;      (* decref of the old value *)
    let v = pop m in
    m.use v Countness;                      (* incref of the new one *)
    m.set_local l v;
    push m v
  | PopC -> m.use (pop m) Countness
  | Dup ->
    let v = pop m in
    m.use v Countness;
    push m v;
    push m v
  | IncDecL (l, op) ->
    let v = m.local l in
    m.use v Specific;
    let nt, r = Optype.incdec op (m.ty v) in
    m.set_local l (m.value nt);
    result m r
  | IssetL _ -> result m R.bool
  | UnsetL l ->
    m.use (m.local l) BoxAndCountness;
    m.set_local l (m.value R.uninit)
  (* ---- operators ---- *)
  | Binop op ->
    let b = pop m in
    let a = pop m in
    m.use a Specific;
    m.use b Specific;
    result m (Optype.binop op (m.ty a) (m.ty b))
  | Unop op ->
    let v = pop m in
    m.use v Specific;
    result m (Optype.unop op (m.ty v))
  | InstanceOf _ ->
    m.use (pop m) Specific;
    result m R.bool
  (* ---- control flow ---- *)
  | Jmp _ | IterNext _ | IterFree _ | Nop -> ()
  | JmpZ _ | JmpNZ _ -> m.use (pop m) Specific
  | RetC | Throw -> m.use (pop m) Generic
  (* ---- calls ---- *)
  | FCall (_, n) ->
    pop_args m n Generic;
    result m R.init_cell
  | FCallBuiltin (name, n) ->
    pop_args m n Specific;
    result m (Optype.builtin name)
  | FCallM (_, n) ->
    pop_args m n Generic;
    m.use (pop m) Specialized;              (* the receiver *)
    result m R.init_cell
  | NewObjD (c, n) ->
    pop_args m n Generic;
    result m (R.obj_exact c)
  | This -> result m (match cls with Some c -> R.obj_sub c | None -> R.obj)
  (* ---- members ---- *)
  | QueryM_Elem ->
    let k = pop m in
    let b = pop m in
    m.use k Specific;
    m.use b Specialized;
    result m R.init_cell
  | QueryM_Prop _ ->
    m.use (pop m) Specialized;
    result m R.init_cell
  | SetM_ElemL l ->
    let v = pop m in
    let k = pop m in
    let base = m.local l in
    m.use base Specialized;
    m.use k Specific;
    m.use v Countness;
    m.set_local l (m.value (R.make R.b_arr));
    push m v
  | SetM_NewElemL l ->
    let v = pop m in
    let base = m.local l in
    m.use base Specialized;
    m.use v Countness;
    (* appending to a packed array, or to an unset local, gives a packed
       array *)
    let prev = m.ty base in
    let packed = R.subtype prev R.packed_arr || R.subtype prev R.uninit in
    m.set_local l (m.value (if packed then R.packed_arr else R.make R.b_arr));
    push m v
  | UnsetM_ElemL l ->
    let k = pop m in
    let base = m.local l in
    m.use base Specialized;
    m.use k Specific;
    (* an unset local stays unset *)
    let prev = R.meet (m.ty base) R.uninit in
    m.set_local l (m.value (R.join prev (R.make R.b_arr)))
  | SetM_Prop _ ->
    let v = pop m in
    let b = pop m in
    m.use b Specialized;
    m.use v Countness;
    push m v
  | IncDecM_Prop (_, op) ->
    m.use (pop m) Specialized;
    result m (Optype.incdec_prop op)
  | IssetM_Elem ->
    let k = pop m in
    let b = pop m in
    m.use k Specific;
    m.use b Specialized;
    result m R.bool
  | IssetM_Prop _ ->
    m.use (pop m) Specialized;
    result m R.bool
  | Print -> m.use (pop m) Specific
  (* ---- iterators ---- *)
  | IterInit _ -> m.use (pop m) Specialized
  | IterKV (_, kloc, vloc) ->
    (match kloc with
     | Some kl ->
       m.use (m.local kl) BoxAndCountness;
       m.set_local kl (m.value (R.join R.int R.sstr))
     | None -> ());
    m.use (m.local vloc) BoxAndCountness;
    m.set_local vloc (m.value R.init_cell)
  (* ---- assertions from hhbbc: trusted type facts ---- *)
  | AssertRATL (l, t) -> m.set_local l (m.narrow (m.local l) t)
  | AssertRATStk (off, t) ->
    m.stack <- List.mapi (fun j v -> if j = off then m.narrow v t else v) m.stack

(** Static evaluation-stack bound for a body: forward dataflow over each
    instruction's pushes minus pops (branch targets carry the
    post-instruction depth; exception handlers enter on an empty stack).
    The interpreter sizes frame stacks from this instead of a blanket
    worst case; hhbbc's rewrites never deepen the stack (asserts are
    effect-free, jump rewrites only redirect), so the bound computed at
    emit time stays valid. *)
let max_stack_depth (code : Instr.t array) (ex : ex_entry list) : int =
  let n = Array.length code in
  if n = 0 then 0
  else begin
    let pops = ref 0 in
    let m =
      typed ~underflow:(fun () -> incr pops; R.cell)
        ~local:(fun _ -> R.cell) ~set_local:(fun _ _ -> ())
    in
    let effect i =
      m.stack <- [];
      pops := 0;
      step m ~cls:None i;
      List.length m.stack - !pops
    in
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
         let d' = d + effect i in
         if d' > !maxd then maxd := d';
         if !maxd > cap then raise Exit;
         List.iter (fun t -> visit t d') (branch_targets i);
         if not (is_terminal i) then visit (pc + 1) d'
       done
     with Exit -> maxd := cap);
    !maxd
  end
