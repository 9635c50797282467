(** PHP array semantics: ordered dictionaries with value semantics via
    copy-on-write (paper §1, §5.3.2).

    The reference-counting protocol: a mutation through a slot holding an
    array whose refcount is greater than 1 first clones the array
    (incref'ing every element), releases the original, and stores the clone
    back.  The COW entry points ([set]/[append]/[unset]) implement this and
    return the node the slot must now hold; the interpreter and the JIT
    helpers share them. *)

open Value

(** Number of live entries. *)
val length : arr -> int

val find_opt : arr -> akey -> value option

(** Lookup with PHP semantics: a missing key yields Null. *)
val get : arr -> akey -> value

(** Raw (non-COW, non-refcounting) insert; returns the displaced value, if
    any, which the caller must release.  Maintains insertion order, the
    mixed kind's index, implicit-integer-key state and packedness (a
    packed array has no index; it gets one when it stops being packed). *)
val set_raw : arr -> akey -> value -> value option

(** Raw append under the next implicit integer key; returns the key used. *)
val append_raw : arr -> value -> akey

(** Shallow structural clone; the clone owns a reference to each element. *)
val clone_data : arr -> arr

(** If the node is shared (rc > 1), produce an exclusive copy; the caller's
    reference moves to the copy. *)
val cow : arr counted -> arr counted

(** COW set through an owning slot: consumes the caller's reference to the
    node and one reference to the value; returns the node to store back. *)
val set : arr counted -> akey -> value -> arr counted

(** COW append; same ownership contract as [set]. *)
val append : arr counted -> value -> arr counted

(** COW removal; shifts the later entries left.  Removing any entry but
    the last takes a packed array to the mixed kind. *)
val unset : arr counted -> akey -> arr counted

(** Array-key coercion for a runtime value (int keys stay ints, bools and
    doubles coerce, strings key as strings); fatal on arrays/objects. *)
val key_of_value : value -> akey

val iter : (akey -> value -> unit) -> arr -> unit
val keys : arr -> akey list
val values : arr -> value list

(** Build counted array nodes from OCaml lists (elements are incref'd). *)
val of_list : (akey * value) list -> arr counted
val of_values : value list -> arr counted
