(** Compilation units: the deployable artifact (Fig. 1, "HHBC Repo").

    A unit holds the function table (plain functions and all class methods,
    flattened) plus class/interface declarations.  Class registration into
    the runtime class table happens at load time (see [Vm.Loader]) because
    method function-ids must exist first. *)

open Instr

type class_info = {
  ci_name : string;
  ci_parent : string option;
  ci_implements : string list;
  ci_props : (string * cval) list;        (** name, default template *)
  ci_methods : (string * int) list;       (** method name -> function id *)
}

type t = {
  mutable functions : func array;
  func_by_name : (string, int) Hashtbl.t;
  mutable classes : class_info list;
  mutable interfaces : (string * string list) list;
}

let create () : t = {
  functions = [||];
  func_by_name = Hashtbl.create 64;
  classes = [];
  interfaces = [];
}

let func (u : t) (id : int) : func = u.functions.(id)

let find_func (u : t) (name : string) : int option =
  Hashtbl.find_opt u.func_by_name name

let num_funcs (u : t) = Array.length u.functions

(* ------------------------------------------------------------------ *)
(* Static string pool                                                  *)
(* ------------------------------------------------------------------ *)

(* Static strings are uncounted and excluded from the heap audit, so a
   process-global intern table is safe across heap resets. *)
let string_pool : (string, Runtime.Value.value) Hashtbl.t = Hashtbl.create 256

(* While parallel request serving runs, the pool is frozen: concurrent
   lookups of an unmutated hashtable are safe, but registering a novel
   string is not.  A miss under freeze returns an unregistered static
   string instead — semantically identical (strings compare by value,
   statics are uncounted either way), it just forgoes sharing.  The
   scheduler freezes before fanning out and thaws after the join. *)
let pool_frozen = ref false

let freeze_interning (b : bool) : unit = pool_frozen := b

let intern (s : string) : Runtime.Value.value =
  match Hashtbl.find_opt string_pool s with
  | Some v -> v
  | None ->
    let v = Runtime.Heap.static_str s in
    if not !pool_frozen then Hashtbl.replace string_pool s v;
    v

(** Materialize a constant template into a runtime value.  Strings intern
    as static strings; arrays allocate fresh counted nodes (each call site
    gets its own copy, preserving value semantics and the heap audit). *)
let rec materialize (c : cval) : Runtime.Value.value =
  match c with
  | CNull -> VNull
  | CBool b -> VBool b
  | CInt i -> VInt i
  | CDbl d -> VDbl d
  | CStr s -> intern s
  | CArr items ->
    let node = Runtime.Heap.new_arr_node () in
    List.iter
      (fun (k, cv) ->
         let v = materialize cv in
         match k with
         | None -> ignore (Runtime.Varray.append_raw node.Runtime.Value.data v)
         | Some (CKInt i) ->
           (match Runtime.Varray.set_raw node.data (KInt i) v with
            | Some old -> Runtime.Heap.decref old
            | None -> ())
         | Some (CKStr s) ->
           (match Runtime.Varray.set_raw node.data (KStr s) v with
            | Some old -> Runtime.Heap.decref old
            | None -> ()))
      items;
    VArr node
