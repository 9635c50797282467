(** Dynamic values for MiniPHP.

    This mirrors HHVM's TypedValue: a value is a type tag plus a data word.
    Strings, arrays and objects live on a reference-counted heap; everything
    else is immediate.  Static strings (from the bytecode constant pool) are
    uncounted, mirroring HHVM's uncounted values: their refcount is the
    sentinel {!static_rc} and Inc/DecRef are no-ops on them. *)

(** Refcount sentinel for uncounted (static) heap values. *)
let static_rc = -1

(** Array keys: PHP arrays are ordered dictionaries keyed by int or string. *)
type akey =
  | KInt of int
  | KStr of string

(** Hash tables keyed by [akey], for the index of a mixed array: the
    equality and hash are monomorphic (no polymorphic [compare], no
    [caml_hash]). *)
module Ktbl = Hashtbl.Make (struct
    type t = akey
    let equal a b =
      match a, b with
      | KInt x, KInt y -> Int.equal x y
      | KStr x, KStr y -> String.equal x y
      | _ -> false
    let hash = function
      | KInt i -> i land max_int
      | KStr s ->
        let h = ref 5381 in
        for i = 0 to String.length s - 1 do
          h := (!h * 33) lxor Char.code (String.unsafe_get s i)
        done;
        !h land max_int
  end)

(** A reference-counted heap node.  [id] is a unique allocation id used by
    the heap audit (leak / double-free detection) and for debugging. *)
type 'a counted = {
  mutable rc : int;
  id : int;
  mutable data : 'a;
}

type value =
  | VUninit                (** an unset local; reading it raises a notice *)
  | VNull
  | VBool of bool
  | VInt of int
  | VDbl of float
  | VStr of string counted
  | VArr of arr counted
  | VObj of obj counted

(** Ordered dictionary: insertion-ordered entries, plus a hash index once
    the array is mixed.  [next_ikey] implements PHP's implicit integer-key
    assignment on append.

    The packed kind (HHVM's Arr::Packed, specialized by the JIT): when
    [packed] holds, the keys are exactly the positions [0..count-1], a
    lookup is a bounds check, and [index] is the shared {!no_index},
    never written.  {!Varray} builds a real index when the array leaves
    the kind — a string key, an int key other than [count], or the
    removal of an entry other than the last — and drops it when the array
    becomes empty, which makes it packed again. *)
and arr = {
  mutable entries : (akey * value) array;   (* insertion order; may have slack *)
  mutable count : int;                      (* live prefix length of entries *)
  mutable index : int Ktbl.t;               (* key -> position; mixed only *)
  mutable next_ikey : int;
  mutable packed : bool;
}

(** Objects have reference semantics.  Properties are stored in a flat slot
    array whose layout is decided by the class (see {!Vclass}). *)
and obj = {
  cls : int;                                (* class id in the class table *)
  props : value array;
}

(** The index of every packed array: empty, and never written. *)
let no_index : int Ktbl.t = Ktbl.create 1

(** Runtime type tags, numbered exactly as the JIT encodes them in machine
    words ({!Word} in simcpu).  Keep in sync with [tag_of_value]. *)
type tag =
  | TUninit
  | TNull
  | TBool
  | TInt
  | TDbl
  | TStr
  | TArr
  | TObj

let tag_code = function
  | TUninit -> 0 | TNull -> 1 | TBool -> 2 | TInt -> 3
  | TDbl -> 4 | TStr -> 5 | TArr -> 6 | TObj -> 7

let tag_of_code = function
  | 0 -> TUninit | 1 -> TNull | 2 -> TBool | 3 -> TInt
  | 4 -> TDbl | 5 -> TStr | 6 -> TArr | 7 -> TObj
  | n -> invalid_arg (Printf.sprintf "Value.tag_of_code %d" n)

let tag_of_value = function
  | VUninit -> TUninit
  | VNull -> TNull
  | VBool _ -> TBool
  | VInt _ -> TInt
  | VDbl _ -> TDbl
  | VStr _ -> TStr
  | VArr _ -> TArr
  | VObj _ -> TObj

let tag_name = function
  | TUninit -> "Uninit" | TNull -> "Null" | TBool -> "Bool" | TInt -> "Int"
  | TDbl -> "Dbl" | TStr -> "Str" | TArr -> "Arr" | TObj -> "Obj"

(** PHP truthiness. *)
let truthy = function
  | VUninit | VNull -> false
  | VBool b -> b
  | VInt i -> i <> 0
  | VDbl d -> d <> 0.0
  | VStr s -> s.data <> "" && s.data <> "0"
  | VArr a -> a.data.count > 0
  | VObj _ -> true

exception Php_fatal of string

let fatal fmt = Printf.ksprintf (fun m -> raise (Php_fatal m)) fmt

(** Numeric coercion used by arithmetic on mixed int/double operands.
    MiniPHP deliberately restricts PHP's type juggling: arithmetic is only
    defined on numbers (int, double, bool-as-int, null-as-0); anything else
    is a fatal error, matching Hack's stricter runtime behaviour. *)
let to_num = function
  | VInt i -> `I i
  | VDbl d -> `D d
  | VBool b -> `I (if b then 1 else 0)
  | VNull -> `I 0
  | v -> fatal "unsupported operand type %s for arithmetic" (tag_name (tag_of_value v))

let to_int_val = function
  | VInt i -> i
  | VDbl d -> int_of_float d
  | VBool b -> if b then 1 else 0
  | VNull -> 0
  | VStr s -> (try int_of_string (String.trim s.data) with _ -> 0)
  | v -> fatal "cannot convert %s to int" (tag_name (tag_of_value v))

let to_dbl_val = function
  | VInt i -> float_of_int i
  | VDbl d -> d
  | VBool b -> if b then 1.0 else 0.0
  | VNull -> 0.0
  | VStr s -> (try float_of_string (String.trim s.data) with _ -> 0.0)
  | v -> fatal "cannot convert %s to double" (tag_name (tag_of_value v))

let rec to_string_val v =
  match v with
  | VUninit | VNull -> ""
  | VBool b -> if b then "1" else ""
  | VInt i -> string_of_int i
  | VDbl d ->
    if Float.is_integer d && Float.abs d < 1e15 then
      (* PHP prints integral doubles without a fractional part *)
      Printf.sprintf "%.0f" d
    else Printf.sprintf "%.12g" d
  | VStr s -> s.data
  | VArr _ -> "Array"
  | VObj _ -> fatal "cannot convert Obj to string"

(** Structural string rendering for debugging / test output (like var_export). *)
and debug_string v =
  match v with
  | VUninit -> "uninit"
  | VNull -> "null"
  | VBool b -> string_of_bool b
  | VInt i -> string_of_int i
  | VDbl d -> to_string_val (VDbl d)
  | VStr s -> "\"" ^ s.data ^ "\""
  | VArr a ->
    let buf = Buffer.create 32 in
    Buffer.add_char buf '[';
    for i = 0 to a.data.count - 1 do
      if i > 0 then Buffer.add_string buf ", ";
      let k, v = a.data.entries.(i) in
      (match k with
       | KInt ik -> Buffer.add_string buf (string_of_int ik)
       | KStr sk -> Buffer.add_string buf ("\"" ^ sk ^ "\""));
      Buffer.add_string buf " => ";
      Buffer.add_string buf (debug_string v)
    done;
    Buffer.add_char buf ']';
    Buffer.contents buf
  | VObj o -> Printf.sprintf "object#%d(cls=%d)" o.id o.data.cls
