(** Class metadata and the global class table.

    Classes are registered at unit-load time.  Each class gets a dense id;
    property layout is a flat slot array (parent slots first), and method
    dispatch uses a name -> function-id table flattened over the hierarchy
    (a vtable analogue); a property access resolves its name to a slot
    once per site and class ({!prop_site}).  Interfaces carry no layout;
    [instanceof] checks walk precomputed ancestor/interface sets, which the
    JIT turns into a bitwise check (paper Fig. 7, "bitwise instanceof
    checks"). *)

type meth = {
  m_name : string;
  m_func : int;          (* function id in the unit's function table *)
  m_defining_cls : int;  (* class id that provided this implementation *)
}

type t = {
  c_id : int;
  c_name : string;
  c_parent : int option;
  c_interfaces : string list;       (* declared interface names *)
  c_prop_names : string array;      (* slot -> property name (incl. inherited) *)
  c_methods : (string, meth) Hashtbl.t;
  c_ctor : int option;              (* function id of __construct, if any *)
  c_dtor : int option;              (* function id of __destruct, if any *)
  (* Precomputed transitive ancestry for instanceof. *)
  c_ancestors : (int, unit) Hashtbl.t;        (* class ids, incl. self *)
  c_iface_set : (string, unit) Hashtbl.t;     (* transitive interface names *)
  c_ancestor_bits : int;            (* bitset over the first 62 class ids *)
}

let table : t array ref = ref [||]
let by_name : (string, int) Hashtbl.t = Hashtbl.create 64

let reset () =
  table := [||];
  Hashtbl.reset by_name

let count () = Array.length !table

let get (id : int) : t = !table.(id)

let find_opt (name : string) : t option =
  match Hashtbl.find_opt by_name name with
  | Some id -> Some (get id)
  | None -> None

let find (name : string) : t =
  match find_opt name with
  | Some c -> c
  | None -> Value.fatal "class %s not found" name

(** Register a class.  [methods] maps method name to function id; layout and
    dispatch tables are flattened over [parent] here. *)
let register ~(name : string) ~(parent : string option)
    ~(interfaces : string list) ~(props : string list)
    ~(methods : (string * int) list) : t =
  let parent_cls = Option.map find parent in
  let id = Array.length !table in
  let parent_props =
    match parent_cls with Some p -> Array.to_list p.c_prop_names | None -> []
  in
  let all_props = Array.of_list (parent_props @ props) in
  let mtbl = Hashtbl.create 8 in
  (match parent_cls with
   | Some p -> Hashtbl.iter (fun k m -> Hashtbl.replace mtbl k m) p.c_methods
   | None -> ());
  List.iter
    (fun (mname, fid) ->
       Hashtbl.replace mtbl mname { m_name = mname; m_func = fid; m_defining_cls = id })
    methods;
  let ancestors = Hashtbl.create 8 in
  Hashtbl.replace ancestors id ();
  let iface_set = Hashtbl.create 8 in
  List.iter (fun i -> Hashtbl.replace iface_set i ()) interfaces;
  (match parent_cls with
   | Some p ->
     Hashtbl.iter (fun k () -> Hashtbl.replace ancestors k ()) p.c_ancestors;
     Hashtbl.iter (fun k () -> Hashtbl.replace iface_set k ()) p.c_iface_set
   | None -> ());
  let bits =
    Hashtbl.fold (fun k () acc -> if k < 62 then acc lor (1 lsl k) else acc)
      ancestors 0
  in
  let ctor = Hashtbl.find_opt mtbl "__construct" |> Option.map (fun m -> m.m_func) in
  let dtor = Hashtbl.find_opt mtbl "__destruct" |> Option.map (fun m -> m.m_func) in
  let c = {
    c_id = id; c_name = name; c_parent = Option.map (fun p -> p.c_id) parent_cls;
    c_interfaces = interfaces;
    c_prop_names = all_props;
    c_methods = mtbl; c_ctor = ctor; c_dtor = dtor;
    c_ancestors = ancestors; c_iface_set = iface_set;
    c_ancestor_bits = bits;
  } in
  table := Array.append !table [| c |];
  Hashtbl.replace by_name name id;
  c

let num_props (c : t) = Array.length c.c_prop_names

(** The slot of property [name], or -1.  A redeclared property has two
    slots (the parent's first); the name resolves to the last. *)
let slot_of_name (c : t) (name : string) : int =
  let names = c.c_prop_names in
  let rec go i = if i < 0 || String.equal names.(i) name then i else go (i - 1) in
  go (Array.length names - 1)

(** A property access site: the property's name and the site's last
    resolution in one word, [cls lsl 32 lor (slot + 1)] (-1: none yet).
    A class's layout never changes once registered, so any word a site
    holds is a correct answer for its class; serving domains share sites,
    and a word is written and read whole, so a race costs at most a
    repeated resolution. *)
type prop_site = { ps_name : string; mutable ps_last : int }

let prop_site (name : string) : prop_site = { ps_name = name; ps_last = -1 }

(** The slot of the site's property in class [cls], or -1. *)
let site_slot (s : prop_site) (cls : int) : int =
  let w = s.ps_last in
  if w asr 32 = cls then (w land 0xffff_ffff) - 1
  else begin
    let slot = slot_of_name (get cls) s.ps_name in
    s.ps_last <- (cls lsl 32) lor (slot + 1);
    slot
  end

let lookup_method (c : t) (name : string) : meth option =
  Hashtbl.find_opt c.c_methods name

(** [instanceof cls name] — true if [cls] is/extends class [name] or
    (transitively) implements interface [name]. *)
let instanceof (c : t) (name : string) : bool =
  match Hashtbl.find_opt by_name name with
  | Some target_id ->
    if target_id < 62 then c.c_ancestor_bits land (1 lsl target_id) <> 0
    else Hashtbl.mem c.c_ancestors target_id
  | None -> Hashtbl.mem c.c_iface_set name

let has_destructor (c : t) : bool = c.c_dtor <> None

(* Wire the heap's destructor predicate. *)
let () =
  Heap.has_destructor_hook := fun cls_id ->
    cls_id < Array.length !table && has_destructor (get cls_id)
