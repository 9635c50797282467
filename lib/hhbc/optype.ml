(** The operators' and builtins' result types, written once.

    The step function ({!Step}), which hhbbc's inference and region
    selection both run, asks here what type an operator's or a builtin's
    result has, given its operands' types.  The JIT trusts the answer:
    hhbbc's assertions (paper §2.3, Fig. 3) and the selector's
    postconditions type the code that follows without a check, and that
    code may side-exit into the interpreter mid-function (§4).  So every
    rule here must hold for the value {!Runtime.Ops} computes, which is the
    interpreter's: [test/test_ops.ml] sweeps each rule against it.  A rule
    may be loose (any supertype is sound); it must never leave out a value
    the operator can produce.  Where an operator raises, it produces none. *)

module R = Rtype
open Runtime.Ops

let binop (op : binop) (a : R.t) (b : R.t) : R.t =
  match op with
  | OpAdd | OpSub | OpMul ->
    if R.subtype a R.int && R.subtype b R.int then R.int
    else if (R.subtype a R.dbl && R.subtype b R.num)
         || (R.subtype b R.dbl && R.subtype a R.num) then R.dbl
    else R.num
  | OpDiv ->
    (* int / int is a double unless the quotient is exact *)
    if R.subtype a R.dbl || R.subtype b R.dbl then R.dbl else R.num
  | OpMod | OpBitAnd | OpBitOr | OpBitXor | OpShl | OpShr -> R.int
  | OpConcat -> R.cstr
  | OpEq | OpNeq | OpSame | OpNSame | OpLt | OpLte | OpGt | OpGte -> R.bool

let unop (op : unop) (t : R.t) : R.t =
  match op with
  | Not | CastBool -> R.bool
  | Neg ->
    if R.subtype t R.int then R.int
    else if R.subtype t R.dbl then R.dbl
    else R.num
  | BitNot | CastInt -> R.int
  | CastDbl -> R.dbl
  | CastString -> R.str

(** [++]/[--] on a local of type [t]: the local's new type and the pushed
    result's.  An unset local reads as null; [null++] is 1 and [null--]
    stays null. *)
let incdec (op : incdec_op) (t : R.t) : R.t * R.t =
  let inc = match op with PostInc | PreInc -> true | PostDec | PreDec -> false in
  let nt =
    if R.subtype t R.int then R.int
    else if R.subtype t R.dbl then R.dbl
    else if R.subtype t R.init_null then (if inc then R.int else R.init_null)
    else if inc || R.is_bottom (R.meet t R.null) then R.num
    else R.join R.num R.init_null
  in
  match op with
  | PreInc | PreDec -> (nt, nt)
  | PostInc | PostDec ->
    let old = R.meet t R.init_cell in
    let old = if R.maybe_uninit t then R.join old R.init_null else old in
    (nt, if R.is_bottom old then nt else old)

(** [++]/[--] on a property: the pushed result's type.  A property may
    hold any initialized value, but only a number or null survives. *)
let incdec_prop (op : incdec_op) : R.t =
  snd (incdec op (R.join R.num R.init_null))

(** A builtin's result type, by name ({!Vm.Builtins.call} computes the
    value).  Unknown names and builtins whose result type depends on the
    arguments' give [InitCell]. *)
let builtin (name : string) : R.t =
  match name with
  | "count" | "sizeof" | "strlen" | "ord" | "intdiv" | "intval" -> R.int
  | "array_sum" -> R.num
  | "sqrt" | "floor" | "ceil" | "round" | "floatval" | "doubleval" -> R.dbl
  | "substr" | "str_repeat" | "strrev" | "strtoupper" | "strtolower"
  | "trim" | "chr" | "implode" | "join" | "strval" | "gettype"
  | "number_format" | "var_dump_str" | "sprintf" | "str_pad"
  | "ucfirst" | "lcfirst" -> R.str
  | "get_class" -> R.join R.str R.bool     (* false for a non-object *)
  | "explode" | "array_keys" | "array_values" | "array_reverse" | "sorted"
  | "range" | "array_merge" | "array_slice" | "array_map" | "array_filter"
  | "usorted" | "str_split" -> R.arr
  | "str_contains" -> R.bool
  | "is_int" | "is_integer" | "is_long" | "is_float" | "is_double"
  | "is_string" | "is_bool" | "is_null" | "is_array" | "is_object"
  | "is_numeric" | "in_array" | "array_key_exists" | "boolval" -> R.bool
  | "mt_rand" | "rand" -> R.int
  | "strpos" -> R.join R.int R.bool
  | _ -> R.init_cell
