(** The runtime type lattice (HHVM's RepoAuthType / JIT Type analogue).

    A type is a bitset over the primitive runtime tags, plus an optional
    class specialization for objects and an array-kind specialization for
    arrays.  Strings distinguish static (uncounted) from counted because
    countedness is what guard relaxation and RCE reason about (Table 1 of
    the paper).  This single lattice is shared by hhbbc (ahead-of-time
    inference), region descriptors, guard relaxation, and HHIR. *)

(** Primitive tag bits; exposed for bit-level tests and constructors. *)
val b_uninit : int
val b_null : int
val b_bool : int
val b_int : int
val b_dbl : int
(* static (uncounted) string bit *)
val b_sstr : int

(* counted string bit *)
val b_cstr : int
val b_arr : int
val b_obj : int
val b_all : int

(** Class specialization, meaningful only when the object bit is set. *)
type cls_spec =
  | CAny                  (** any class *)
  | CExact of string      (** exactly this class *)
  | CSub of string        (** this class or a subclass *)

(** Array-kind specialization (HHVM's Arr::Packed etc.). *)
type arr_spec =
  | AAny
  | APacked               (** vector-like array, keys are 0..n-1 *)

type t = {
  bits : int;
  cls : cls_spec;
  arr : arr_spec;
}

(** Construct from bits; drops irrelevant specializations. *)
val make : ?cls:cls_spec -> ?arr:arr_spec -> int -> t

(** {2 Common lattice points} *)

val bottom : t
val uninit : t
val init_null : t
(* Uninit|Null *)
val null : t
val bool : t
val int : t
val dbl : t
(* Int|Dbl *)
val num : t
val sstr : t
(* SStr|CStr *)
val str : t
val cstr : t
val arr : t
val packed_arr : t
val obj : t
val obj_exact : string -> t
val obj_sub : string -> t
(* everything never refcounted, including Uninit *)
val uncounted : t
val uncounted_init : t
(* anything initialized *)
val init_cell : t
(* top *)
val cell : t
(* CStr|Arr|Obj *)
val counted : t

(** {2 Lattice operations} *)

val is_bottom : t -> bool
val subtype : t -> t -> bool
val join : t -> t -> t
val meet : t -> t -> t
val equal : t -> t -> bool

(** Subclass oracle for class specializations; installed by the VM loader
    once classes are registered.  Defaults to name equality. *)
val subclass_hook : (string -> string -> bool) ref

(** {2 JIT-facing predicates} *)

(** A single runtime tag matches: code can skip the tag dispatch. *)
val is_specific : t -> bool

(** No matching value is refcounted (IncRef/DecRef elide statically). *)
val not_counted : t -> bool

val maybe_counted : t -> bool

(** Every matching value is refcounted. *)
val definitely_counted : t -> bool

val maybe_uninit : t -> bool

(** {2 Conversions} *)

(** Most precise lattice point for a concrete value — what the live
    tracelet selector and profiling observe. *)
val of_value : Runtime.Value.value -> t

(** Runtime semantics of a type guard: does [v] inhabit [t]? *)
val value_matches : t -> Runtime.Value.value -> bool

(** Lattice point for a (runtime-checked) parameter type hint. *)
val of_hint : Mphp.Ast.hint -> t

val to_string : t -> string
val pp : Format.formatter -> t -> unit
