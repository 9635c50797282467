(** PHP array semantics: ordered dictionaries with value semantics
    implemented by copy-on-write (paper §1, §5.3.2).

    Structural operations live here; the COW protocol is:
    a mutation through a slot holding an array whose refcount is > 1 must
    first clone the array (incref'ing every element), decref the original,
    and store the clone back into the slot.  [set]/[append] return the node
    to store back so interpreter and JIT helpers share one implementation.

    Deletion ([unset]) removes the entry and shifts the later ones left,
    so [entries.(0..count-1)] are always the live entries in order.  A
    packed array (Value.arr) has no index at all. *)

open Value

let grow (d : arr) =
  let cap = Array.length d.entries in
  let ncap = if cap = 0 then 8 else cap * 2 in
  let ne = Array.make ncap (KInt 0, VNull) in
  Array.blit d.entries 0 ne 0 cap;
  d.entries <- ne

(** Number of live entries. *)
let length (d : arr) = d.count

(* Position of [k] in [d.entries], or -1.  A packed array answers from
   the key alone. *)
let pos_of (d : arr) (k : akey) : int =
  if d.packed then
    match k with
    | KInt i when i >= 0 && i < d.count -> i
    | _ -> -1
  else
    match Ktbl.find_opt d.index k with
    | Some pos -> pos
    | None -> -1

(* Leave the packed kind: index the current entries (keys [0..count-1]). *)
let unpack (d : arr) =
  let index = Ktbl.create (max 8 (2 * d.count)) in
  for i = 0 to d.count - 1 do Ktbl.add index (KInt i) i done;
  d.index <- index;
  d.packed <- false

let find_opt (d : arr) (k : akey) : value option =
  let pos = pos_of d k in
  if pos < 0 then None else Some (snd d.entries.(pos))

(** Raw set: no refcounting; overwrites in place or appends a new entry.
    Returns the value previously bound to [k] (to decref), if any. *)
let set_raw (d : arr) (k : akey) (v : value) : value option =
  let pos = pos_of d k in
  if pos >= 0 then begin
    let old = snd d.entries.(pos) in
    d.entries.(pos) <- (k, v);
    Some old
  end else begin
    if d.count = Array.length d.entries then grow d;
    (* packedness is preserved only by appending the next sequential key *)
    (match k with
     | KInt i when i = d.count -> ()
     | _ -> if d.packed then unpack d);
    d.entries.(d.count) <- (k, v);
    if not d.packed then Ktbl.add d.index k d.count;
    d.count <- d.count + 1;
    (match k with
     | KInt i when i >= d.next_ikey -> d.next_ikey <- i + 1
     | _ -> ());
    None
  end

(** Raw append with implicit integer key.  Returns the key used. *)
let append_raw (d : arr) (v : value) : akey =
  let k = KInt d.next_ikey in
  ignore (set_raw d k v);
  k

(** Shallow structural clone.  Elements are incref'd: the clone owns a
    reference to each element, as in HHVM's array COW copy.  A packed
    clone has no index to copy. *)
let clone_data (d : arr) : arr =
  let entries = if d.count = 0 then [||] else Array.sub d.entries 0 d.count in
  let index = if d.packed then no_index else Ktbl.copy d.index in
  for i = 0 to d.count - 1 do
    Heap.incref (snd entries.(i))
  done;
  { entries; count = d.count; index; next_ikey = d.next_ikey; packed = d.packed }

(** If [node] is shared (rc > 1), produce an exclusive copy; the caller's
    reference moves to the copy (original is decref'd without releasing
    elements twice because the clone incref'd them). *)
let cow (node : arr counted) : arr counted =
  if node.rc = 1 then node
  else begin
    let copy = Heap.alloc_arr (clone_data node.data) in
    (* drop caller's reference to the original *)
    node.rc <- node.rc - 1;
    let s = Heap.stats () in s.Heap.decref_ops <- s.Heap.decref_ops + 1;
    copy
  end

(** COW set through an owning slot.  Consumes the caller's reference to
    [node], returns the node the slot must now hold.  Takes ownership of one
    reference to [v] (caller increfs before if needed). *)
let set (node : arr counted) (k : akey) (v : value) : arr counted =
  let node = cow node in
  (match set_raw node.data k v with
   | Some old -> Heap.decref old
   | None -> ());
  node

(** COW append. *)
let append (node : arr counted) (v : value) : arr counted =
  let node = cow node in
  ignore (append_raw node.data v);
  node

(** COW unset: removes the binding for [k] if present, shifting the later
    entries left.  Removing the last entry keeps a packed array packed;
    removing any other leaves the kind; an emptied array is packed. *)
let unset (node : arr counted) (k : akey) : arr counted =
  let pos = pos_of node.data k in
  if pos < 0 then node
  else begin
    (* a COW copy keeps every entry's position *)
    let node = cow node in
    let d = node.data in
    Heap.decref (snd d.entries.(pos));
    let last = d.count - 1 in
    if pos < last && d.packed then unpack d;
    if not d.packed then begin
      Ktbl.remove d.index k;
      for i = pos to last - 1 do
        d.entries.(i) <- d.entries.(i + 1);
        Ktbl.replace d.index (fst d.entries.(i)) i
      done
    end;
    d.count <- last;
    if last = 0 then begin d.index <- no_index; d.packed <- true end;
    node
  end

(** Lookup with PHP notice semantics: missing key yields Null. *)
let get (d : arr) (k : akey) : value =
  let pos = pos_of d k in
  if pos < 0 then VNull else snd d.entries.(pos)

let key_of_value (v : value) : akey =
  match v with
  | VInt i -> KInt i
  | VStr s -> KStr s.data
  | VBool b -> KInt (if b then 1 else 0)
  | VNull -> KStr ""
  | VDbl d -> KInt (int_of_float d)
  | _ -> Value.fatal "illegal array key type %s" (tag_name (tag_of_value v))

let iter (f : akey -> value -> unit) (d : arr) =
  for i = 0 to d.count - 1 do
    let k, v = d.entries.(i) in
    f k v
  done

let keys (d : arr) : akey list =
  List.init d.count (fun i -> fst d.entries.(i))

let values (d : arr) : value list =
  List.init d.count (fun i -> snd d.entries.(i))

(** Build a counted array node from a list (each element incref'd). *)
let of_list (kvs : (akey * value) list) : arr counted =
  let node = Heap.new_arr_node () in
  List.iter (fun (k, v) -> Heap.incref v; ignore (set_raw node.data k v)) kvs;
  node

let of_values (vs : value list) : arr counted =
  let node = Heap.new_arr_node () in
  List.iter (fun v -> Heap.incref v; ignore (append_raw node.data v)) vs;
  node
