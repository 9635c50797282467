(** The runtime type lattice (HHVM's RepoAuthType / JIT Type analogue).

    A type is a bitset over the primitive runtime tags, plus an optional
    class specialization for objects and an array-kind specialization for
    arrays.  Strings distinguish static (uncounted) from counted, because
    countedness is what guard relaxation and RCE reason about (Table 1).

    This single lattice is shared by hhbbc (ahead-of-time inference), region
    descriptors (preconditions/postconditions), guard relaxation, and HHIR. *)

(* Bit assignments. *)
let b_uninit = 1
let b_null = 2
let b_bool = 4
let b_int = 8
let b_dbl = 16
let b_sstr = 32      (* static (uncounted) string *)
let b_cstr = 64      (* counted string *)
let b_arr = 128
let b_obj = 256

let b_all = 511

type cls_spec =
  | CAny                  (** any class *)
  | CExact of string      (** exactly this class *)
  | CSub of string        (** this class or a subclass *)

type arr_spec =
  | AAny
  | APacked               (** vector-like array, keys 0..n-1 *)

type t = {
  bits : int;
  cls : cls_spec;         (* meaningful only when [b_obj] is set *)
  arr : arr_spec;         (* meaningful only when [b_arr] is set *)
}

let make ?(cls = CAny) ?(arr = AAny) bits =
  { bits;
    cls = (if bits land b_obj <> 0 then cls else CAny);
    arr = (if bits land b_arr <> 0 then arr else AAny) }

let bottom = make 0
let uninit = make b_uninit
let init_null = make b_null
let null = make (b_uninit lor b_null)
let bool = make b_bool
let int = make b_int
let dbl = make b_dbl
let num = make (b_int lor b_dbl)
let sstr = make b_sstr
let str = make (b_sstr lor b_cstr)
let cstr = make b_cstr
let arr = make b_arr
let packed_arr = make ~arr:APacked b_arr
let obj = make b_obj
let obj_exact c = make ~cls:(CExact c) b_obj
let obj_sub c = make ~cls:(CSub c) b_obj
let uncounted = make (b_uninit lor b_null lor b_bool lor b_int lor b_dbl lor b_sstr)
let uncounted_init = make (b_null lor b_bool lor b_int lor b_dbl lor b_sstr)
let init_cell = make (b_all land lnot b_uninit)
let cell = make b_all
let counted = make (b_cstr lor b_arr lor b_obj)

let is_bottom t = t.bits = 0

(* Subclass query, installed by the VM loader once classes are registered.
   Defaults to name equality so the lattice is usable before class load. *)
let subclass_hook : (string -> string -> bool) ref =
  ref (fun sub sup -> String.equal sub sup)

let cls_subtype a b =
  match a, b with
  | _, CAny -> true
  | CAny, _ -> false
  | CExact x, CExact y -> String.equal x y
  | CExact x, CSub y -> !subclass_hook x y
  | CSub x, CSub y -> !subclass_hook x y
  | CSub _, CExact _ -> false

let cls_join a b =
  if cls_subtype a b then b
  else if cls_subtype b a then a
  else
    (* least common: fall back to CAny (no LCA computation over names) *)
    CAny

let cls_meet a b =
  if cls_subtype a b then a
  else if cls_subtype b a then b
  else CExact "\000impossible\000"   (* meet is empty; caller checks via subtype *)

let arr_subtype a b =
  match a, b with
  | _, AAny -> true
  | APacked, APacked -> true
  | AAny, APacked -> false

let arr_join a b = if a = b then a else AAny
let arr_meet a b =
  match a, b with
  | AAny, x | x, AAny -> x
  | APacked, APacked -> APacked

let subtype (a : t) (b : t) : bool =
  a.bits land lnot b.bits = 0
  && (a.bits land b_obj = 0 || cls_subtype a.cls b.cls)
  && (a.bits land b_arr = 0 || arr_subtype a.arr b.arr)

let join (a : t) (b : t) : t =
  let bits = a.bits lor b.bits in
  let cls =
    match a.bits land b_obj <> 0, b.bits land b_obj <> 0 with
    | true, true -> cls_join a.cls b.cls
    | true, false -> a.cls
    | false, true -> b.cls
    | false, false -> CAny
  in
  let arrk =
    match a.bits land b_arr <> 0, b.bits land b_arr <> 0 with
    | true, true -> arr_join a.arr b.arr
    | true, false -> a.arr
    | false, true -> b.arr
    | false, false -> AAny
  in
  make ~cls ~arr:arrk bits

let meet (a : t) (b : t) : t =
  let bits = a.bits land b.bits in
  let cls = if bits land b_obj <> 0 then cls_meet a.cls b.cls else CAny in
  let arrk = if bits land b_arr <> 0 then arr_meet a.arr b.arr else AAny in
  (* an impossible class meet removes the obj bit *)
  let bits =
    if bits land b_obj <> 0 && cls = CExact "\000impossible\000"
    then bits land lnot b_obj else bits
  in
  make ~cls:(if cls = CExact "\000impossible\000" then CAny else cls) ~arr:arrk bits

(** A type is "specific" when a single runtime tag matches it — the JIT can
    then operate without a tag dispatch. *)
let is_specific (t : t) : bool =
  let b = t.bits in
  (* a single bit, or the two string bits together (the specific Str type) *)
  b <> 0 && (b land (b - 1) = 0 || b = b_sstr lor b_cstr)

(** Definitely not reference counted, whatever the runtime value. *)
let not_counted (t : t) : bool =
  t.bits land (b_cstr lor b_arr lor b_obj) = 0

(** Possibly reference counted. *)
let maybe_counted (t : t) : bool = not (not_counted t)

(** Definitely reference counted (every matching value is counted). *)
let definitely_counted (t : t) : bool =
  t.bits <> 0 && t.bits land lnot (b_cstr lor b_arr lor b_obj) = 0

let maybe_uninit (t : t) : bool = t.bits land b_uninit <> 0

(** Most precise lattice point for a concrete runtime value (used by the
    live tracelet selector inspecting VM state, and by profiling). *)
let of_value (v : Runtime.Value.value) : t =
  match v with
  | VUninit -> uninit
  | VNull -> init_null
  | VBool _ -> bool
  | VInt _ -> int
  | VDbl _ -> dbl
  | VStr s -> if s.rc = Runtime.Value.static_rc then sstr else cstr
  | VArr a -> if a.data.packed then packed_arr else make b_arr
  | VObj o ->
    let c = Runtime.Vclass.get o.data.cls in
    obj_exact c.c_name

(** Runtime check: does [v] inhabit [t]?  This is the semantics of a type
    guard emitted from a precondition: exactly [subtype (of_value v) t],
    decided on the value's tag, countedness, packedness and class without
    building [of_value v]. *)
let value_matches (t : t) (v : Runtime.Value.value) : bool =
  let bits = t.bits in
  match v with
  | VUninit -> bits land b_uninit <> 0
  | VNull -> bits land b_null <> 0
  | VBool _ -> bits land b_bool <> 0
  | VInt _ -> bits land b_int <> 0
  | VDbl _ -> bits land b_dbl <> 0
  | VStr s ->
    bits land (if s.rc = Runtime.Value.static_rc then b_sstr else b_cstr) <> 0
  | VArr a ->
    bits land b_arr <> 0
    && (match t.arr with AAny -> true | APacked -> a.data.packed)
  | VObj o ->
    bits land b_obj <> 0
    && (match t.cls with
        | CAny -> true
        | CExact y -> String.equal (Runtime.Vclass.get o.data.cls).c_name y
        | CSub y -> !subclass_hook (Runtime.Vclass.get o.data.cls).c_name y)

let to_string (t : t) : string =
  if t.bits = 0 then "Bottom"
  else if t.bits = cell.bits then "Cell"
  else if t.bits = init_cell.bits then "InitCell"
  else if t.bits = uncounted.bits then "Uncounted"
  else if t.bits = uncounted_init.bits then "UncountedInit"
  else begin
    let parts = ref [] in
    let add b name = if t.bits land b <> 0 then parts := name :: !parts in
    add b_obj (match t.cls with
        | CAny -> "Obj"
        | CExact c -> "Obj=" ^ c
        | CSub c -> "Obj<=" ^ c);
    add b_arr (match t.arr with AAny -> "Arr" | APacked -> "Arr:Packed");
    if t.bits land (b_sstr lor b_cstr) = b_sstr lor b_cstr then begin
      parts := "Str" :: !parts
    end else begin
      add b_cstr "CStr";
      add b_sstr "SStr"
    end;
    add b_dbl "Dbl";
    add b_int "Int";
    add b_bool "Bool";
    add b_null "Null";
    add b_uninit "Uninit";
    String.concat "|" !parts
  end

let equal (a : t) (b : t) = a.bits = b.bits && a.cls = b.cls && a.arr = b.arr

let pp fmt t = Format.pp_print_string fmt (to_string t)

(** Lattice point for a (checked) parameter type hint.  Hints are enforced
    at function prologues, so after the check the hint is trusted — HHVM's
    treatment of shallow hints (§2.1). *)
let of_hint (h : Mphp.Ast.hint) : t =
  let rec go = function
    | Mphp.Ast.Hint_int -> int
    | Hint_float -> dbl
    | Hint_string -> str
    | Hint_bool -> bool
    | Hint_array -> arr
    | Hint_class c -> obj_sub c
    | Hint_nullable h -> join init_null (go h)
  in
  go h
