(** MiniPHP's operator semantics, written once.

    Compiled code side-exits into the interpreter and re-enters it
    mid-function (paper §2.4, §4), so every tier must compute the same
    value for the same operator.  This module is the one definition:
    - the interpreter's [Binop] and unary handlers, the JIT's generic
      helpers and the AST constant folder call {!binop_fn} and
      {!unop_fn} on boxed values;
    - HHIR Simplify and SimCPU's specialized arithmetic, compare, negate
      and conversion instructions call the int, double, bool and string
      functions ({!int_arith}, {!dbl_arith}, {!cmp_int}, {!neg_int},
      {!to_bool}, ...), which the value-level functions are built from.

    The interpreter is the oracle: where it differs from PHP (NaN in
    ordered comparisons), this module keeps the interpreter's behaviour.

    Division and modulo by zero raise {!Value.Php_fatal}.  A constant
    folder must decline there ({!fold}) so the fatal still happens at run
    time. *)

open Value

type binop =
  | OpAdd | OpSub | OpMul | OpDiv | OpMod | OpConcat
  | OpEq | OpNeq | OpSame | OpNSame
  | OpLt | OpLte | OpGt | OpGte
  | OpBitAnd | OpBitOr | OpBitXor | OpShl | OpShr

type incdec_op = PostInc | PostDec | PreInc | PreDec

(** The unary operators and the casts. *)
type unop = Not | Neg | BitNot | CastInt | CastDbl | CastString | CastBool

(** Conditions of the typed compare instructions. *)
type cmp = Ceq | Cne | Clt | Cle | Cgt | Cge

(** Int arithmetic of the typed tiers (HHIR [AddInt]..., Vasm [VArithI]). *)
type iop = Add | Sub | Mul | Mod | And | Or | Xor | Shl | Shr

(** Double arithmetic of the typed tiers (HHIR [AddDbl]..., Vasm [VArithD]). *)
type dop = DAdd | DSub | DMul | DDiv

(* ------------------------------------------------------------------ *)
(* Ints, doubles and strings                                           *)
(* ------------------------------------------------------------------ *)

let division_by_zero () = fatal "division by zero"

let int_arith (op : iop) (x : int) (y : int) : int =
  match op with
  | Add -> x + y
  | Sub -> x - y
  | Mul -> x * y
  | Mod -> if y = 0 then fatal "modulo by zero" else x mod y
  | And -> x land y
  | Or -> x lor y
  | Xor -> x lxor y
  | Shl -> x lsl (y land 63)
  | Shr -> x asr (y land 63)

let dbl_arith (op : dop) (x : float) (y : float) : float =
  match op with
  | DAdd -> x +. y
  | DSub -> x -. y
  | DMul -> x *. y
  | DDiv -> if y = 0.0 then division_by_zero () else x /. y

(** Int division: an exact quotient stays an int, any other becomes a
    double. *)
let int_div (x : int) (y : int) : value =
  if y = 0 then division_by_zero ()
  else if x mod y = 0 then VInt (x / y)
  else VDbl (float_of_int x /. float_of_int y)

(** Double equality ([==], [===]) is IEEE: NaN equals nothing. *)
let dbl_eq (x : float) (y : float) : bool = x = y

(** Double ordering ([<], [<=], [>], [>=]) is [Float.compare]: NaN sorts
    below every number and equal to itself.  PHP differs; the interpreter
    is the oracle. *)
let dbl_order (x : float) (y : float) : int = Float.compare x y

let of_order (c : cmp) (n : int) : bool =
  match c with
  | Ceq -> n = 0 | Cne -> n <> 0 | Clt -> n < 0
  | Cle -> n <= 0 | Cgt -> n > 0 | Cge -> n >= 0

let cmp_int (c : cmp) (x : int) (y : int) : bool =
  match c with
  | Ceq -> x = y | Cne -> x <> y | Clt -> x < y
  | Cle -> x <= y | Cgt -> x > y | Cge -> x >= y

let cmp_dbl (c : cmp) (x : float) (y : float) : bool =
  match c with
  | Ceq -> dbl_eq x y
  | Cne -> not (dbl_eq x y)
  | Clt | Cle | Cgt | Cge -> of_order c (dbl_order x y)

let cmp_str (c : cmp) (x : string) (y : string) : bool =
  of_order c (String.compare x y)

let neg_int (x : int) : int = - x
let neg_dbl (x : float) : float = -. x
let int_to_dbl : int -> float = float_of_int

(** The conversions behind the casts and truthiness, from {!Value}. *)
let to_bool : value -> bool = truthy
let to_int : value -> int = to_int_val
let to_dbl : value -> float = to_dbl_val
let to_str : value -> string = to_string_val

(** [Some (f x y)], or [None] where [f] raises: a constant folder
    declines there and leaves the fatal to run time. *)
let fold (f : 'a -> 'b -> 'c) (x : 'a) (y : 'b) : 'c option =
  match f x y with
  | r -> Some r
  | exception Php_fatal _ -> None

(* ------------------------------------------------------------------ *)
(* Boxed values: the interpreter's operators                           *)
(* ------------------------------------------------------------------ *)

(* The int/int fast paths below skip [to_num]'s polymorphic-variant
   boxing (two short-lived allocations per arithmetic op otherwise), and
   draw small results from a preallocated table — VInt is immutable and
   uncounted, so sharing cells is invisible to programs and to the
   refcount ledger. *)

let small_ints : value array = Array.init 512 (fun i -> VInt (i - 256))

let vint (n : int) : value =
  if n >= -256 && n < 256 then Array.unsafe_get small_ints (n + 256)
  else VInt n

(* Preallocated boolean results: VBool is immutable and uncounted, so
   every comparison can return the same two cells. *)
let vtrue = VBool true
let vfalse = VBool false
let vbool b = if b then vtrue else vfalse

let arith_add a b =
  match a, b with
  | VInt x, VInt y -> vint (x + y)
  | _ ->
    (match to_num a, to_num b with
     | `I x, `I y -> VInt (x + y)
     | `I x, `D y -> VDbl (float_of_int x +. y)
     | `D x, `I y -> VDbl (x +. float_of_int y)
     | `D x, `D y -> VDbl (x +. y))

let arith_sub a b =
  match a, b with
  | VInt x, VInt y -> vint (x - y)
  | _ ->
    (match to_num a, to_num b with
     | `I x, `I y -> VInt (x - y)
     | `I x, `D y -> VDbl (float_of_int x -. y)
     | `D x, `I y -> VDbl (x -. float_of_int y)
     | `D x, `D y -> VDbl (x -. y))

let arith_mul a b =
  match a, b with
  | VInt x, VInt y -> vint (x * y)
  | _ ->
    (match to_num a, to_num b with
     | `I x, `I y -> VInt (x * y)
     | `I x, `D y -> VDbl (float_of_int x *. y)
     | `D x, `I y -> VDbl (x *. float_of_int y)
     | `D x, `D y -> VDbl (x *. y))

let arith_div a b =
  match to_num a, to_num b with
  | `I x, `I y -> int_div x y
  | `I x, `D y -> VDbl (dbl_arith DDiv (float_of_int x) y)
  | `D x, `I y -> VDbl (dbl_arith DDiv x (float_of_int y))
  | `D x, `D y -> VDbl (dbl_arith DDiv x y)

(* Modulo and the bitwise operators convert both operands to ints
   (modulo the left one first, the bitwise operators the right one). *)
let arith_mod a b =
  let x = to_int_val a and y = to_int_val b in
  VInt (int_arith Mod x y)

let int_bitop (op : iop) a b = VInt (int_arith op (to_int_val a) (to_int_val b))

(** Concatenation's string: the caller owns the heap allocation. *)
let concat a b = to_string_val a ^ to_string_val b

(** Loose equality ([==]).  Numeric values compare numerically across
    int/double; strings compare as strings; arrays compare structurally;
    objects by identity.  We do not implement PHP's string-to-number
    juggling for [==] — strings only equal strings. *)
let rec loose_eq a b =
  match a, b with
  | (VNull | VUninit), (VNull | VUninit) -> true
  | VBool x, VBool y -> x = y
  | VBool _, _ | _, VBool _ -> truthy a = truthy b
  | VInt x, VInt y -> x = y
  | VInt x, VDbl y | VDbl y, VInt x -> dbl_eq (float_of_int x) y
  | VDbl x, VDbl y -> dbl_eq x y
  | VStr x, VStr y -> x.data = y.data
  | VArr x, VArr y -> arr_eq x.data y.data
  | VObj x, VObj y -> x.id = y.id
  | _ -> false

and arr_eq x y =
  x.count = y.count
  && begin
    let ok = ref true in
    for i = 0 to x.count - 1 do
      let kx, vx = x.entries.(i) and ky, vy = y.entries.(i) in
      if kx <> ky || not (loose_eq vx vy) then ok := false
    done;
    !ok
  end

(** Strict equality ([===]): same type and same value (objects: identity). *)
let rec strict_eq a b =
  match a, b with
  | VNull, VNull -> true
  | VBool x, VBool y -> x = y
  | VInt x, VInt y -> x = y
  | VDbl x, VDbl y -> dbl_eq x y
  | VStr x, VStr y -> x.data = y.data
  | VObj x, VObj y -> x.id = y.id
  | VArr x, VArr y ->
    x.data.count = y.data.count
    && begin
      let ok = ref true in
      for i = 0 to x.data.count - 1 do
        let kx, vx = x.data.entries.(i) and ky, vy = y.data.entries.(i) in
        if kx <> ky || not (strict_eq vx vy) then ok := false
      done;
      !ok
    end
  | _ -> false

(** Relational comparison; defined on numbers and strings.  The arms use
    the monomorphic comparison primitives, without the polymorphic-compare
    call on the hot int/int shape. *)
let compare_vals a b =
  match a, b with
  | VInt x, VInt y -> if x < y then -1 else if x > y then 1 else 0
  | VStr x, VStr y -> String.compare x.data y.data
  | (VInt _ | VDbl _ | VBool _ | VNull), (VInt _ | VDbl _ | VBool _ | VNull) ->
    dbl_order (to_dbl_val a) (to_dbl_val b)
  | _ ->
    fatal "unsupported comparison between %s and %s"
      (tag_name (tag_of_value a)) (tag_name (tag_of_value b))

(** Resolve a binary operator to its semantic function once — the
    interpreter does it at flatten time.  The result is owned (never one
    of the borrowed operands); concatenation allocates a counted string. *)
let binop_fn (op : binop) : value -> value -> value =
  match op with
  | OpAdd -> arith_add
  | OpSub -> arith_sub
  | OpMul -> arith_mul
  | OpDiv -> arith_div
  | OpMod -> arith_mod
  | OpConcat -> fun a b -> Heap.new_str (concat a b)
  | OpEq -> fun a b -> vbool (loose_eq a b)
  | OpNeq -> fun a b -> vbool (not (loose_eq a b))
  | OpSame -> fun a b -> vbool (strict_eq a b)
  | OpNSame -> fun a b -> vbool (not (strict_eq a b))
  | OpLt -> fun a b -> vbool (compare_vals a b < 0)
  | OpLte -> fun a b -> vbool (compare_vals a b <= 0)
  | OpGt -> fun a b -> vbool (compare_vals a b > 0)
  | OpGte -> fun a b -> vbool (compare_vals a b >= 0)
  | OpBitAnd -> fun a b -> int_bitop And a b
  | OpBitOr -> fun a b -> int_bitop Or a b
  | OpBitXor -> fun a b -> int_bitop Xor a b
  | OpShl -> fun a b -> int_bitop Shl a b
  | OpShr -> fun a b -> int_bitop Shr a b

(** Resolve a unary operator or cast once, as {!binop_fn}.  The result
    is owned; a string cast allocates a counted string. *)
let unop_fn (op : unop) : value -> value =
  match op with
  | Not -> fun v -> vbool (not (to_bool v))
  | Neg ->
    fun v ->
      (match to_num v with
       | `I i -> VInt (neg_int i)
       | `D d -> VDbl (neg_dbl d))
  | BitNot -> fun v -> VInt (lnot (to_int v))
  | CastInt -> fun v -> VInt (to_int v)
  | CastDbl -> fun v -> VDbl (to_dbl v)
  | CastBool -> fun v -> vbool (to_bool v)
  | CastString -> fun v -> Heap.new_str (to_str v)

(** [++]/[--]: the new value and the expression's result. *)
let incdec (op : incdec_op) (old : value) : value * value =
  let nv =
    match old with
    | VInt i -> VInt (i + (match op with PostInc | PreInc -> 1 | _ -> -1))
    | VDbl d -> VDbl (d +. (match op with PostInc | PreInc -> 1.0 | _ -> -1.0))
    | VNull -> (match op with PostInc | PreInc -> VInt 1 | _ -> VNull)
    | _ -> fatal "cannot increment/decrement %s" (tag_name (tag_of_value old))
  in
  let result = match op with PostInc | PostDec -> old | _ -> nv in
  (nv, result)
