(** Unit tests for the runtime substrate: values, refcounted heap, COW
    arrays, class table. *)

open Runtime

let reset () = Heap.reset (); Vclass.reset ()

let t name f = Alcotest.test_case name `Quick (fun () -> reset (); f ())

let value_tests = [
  t "truthiness" (fun () ->
      let open Value in
      Alcotest.(check bool) "0 falsy" false (truthy (VInt 0));
      Alcotest.(check bool) "1 truthy" true (truthy (VInt 1));
      Alcotest.(check bool) "'' falsy" false (truthy (Heap.static_str ""));
      Alcotest.(check bool) "'0' falsy" false (truthy (Heap.static_str "0"));
      Alcotest.(check bool) "'00' truthy" true (truthy (Heap.static_str "00"));
      Alcotest.(check bool) "empty array falsy" false (truthy (Heap.new_arr ()));
      Alcotest.(check bool) "null falsy" false (truthy VNull));
  t "loose vs strict equality" (fun () ->
      let open Value in
      Alcotest.(check bool) "1 == 1.0" true (Ops.loose_eq (VInt 1) (VDbl 1.0));
      Alcotest.(check bool) "1 === 1.0 is false" false (Ops.strict_eq (VInt 1) (VDbl 1.0));
      Alcotest.(check bool) "null == false" true (Ops.loose_eq VNull (VBool false));
      Alcotest.(check bool) "null === false is false" false (Ops.strict_eq VNull (VBool false)));
  t "to_string formatting" (fun () ->
      let open Value in
      Alcotest.(check string) "int" "42" (to_string_val (VInt 42));
      Alcotest.(check string) "integral double" "3" (to_string_val (VDbl 3.0));
      Alcotest.(check string) "fractional double" "3.5" (to_string_val (VDbl 3.5));
      Alcotest.(check string) "true" "1" (to_string_val (VBool true));
      Alcotest.(check string) "false" "" (to_string_val (VBool false));
      Alcotest.(check string) "null" "" (to_string_val VNull));
  t "tag codes roundtrip" (fun () ->
      List.iter
        (fun tg ->
           Alcotest.(check bool) "roundtrip" true
             (Value.tag_of_code (Value.tag_code tg) = tg))
        [ Value.TUninit; TNull; TBool; TInt; TDbl; TStr; TArr; TObj ]);
]

let heap_tests = [
  t "alloc and free" (fun () ->
      let s = Heap.new_str "hello" in
      Alcotest.(check int) "live after alloc" 1 (Heap.stats ()).Heap.live;
      Heap.decref s;
      Alcotest.(check int) "live after free" 0 (Heap.stats ()).Heap.live;
      Alcotest.(check (list string)) "audit clean" [] (Heap.live_allocations ()));
  t "incref keeps alive" (fun () ->
      let s = Heap.new_str "x" in
      Heap.incref s;
      Heap.decref s;
      Alcotest.(check int) "still live" 1 (Heap.stats ()).Heap.live;
      Heap.decref s;
      Alcotest.(check int) "now dead" 0 (Heap.stats ()).Heap.live);
  t "static strings are uncounted" (fun () ->
      let s = Heap.static_str "static" in
      Heap.incref s; Heap.decref s; Heap.decref s;
      Alcotest.(check int) "no live counted objects" 0 (Heap.stats ()).Heap.live);
  t "array free releases elements" (fun () ->
      let s = Heap.new_str "elem" in
      let node = Varray.of_values [ s ] in
      Heap.decref s;       (* array now sole owner *)
      Alcotest.(check int) "two live (arr + str)" 2 (Heap.stats ()).Heap.live;
      Heap.decref (Value.VArr node);
      Alcotest.(check int) "all freed" 0 (Heap.stats ()).Heap.live);
  t "double free detected" (fun () ->
      let s = Heap.new_str "x" in
      Heap.decref s;
      Alcotest.check_raises "second decref fails"
        (Failure "heap audit: decref of dead str#1")
        (fun () -> Heap.decref s));
  t "audit reports a double free and lists leaks" (fun () ->
      (* a freed node whose refcount is revived past the poison reaches
         the audit table, which no longer has its id *)
      let s = Heap.new_str "x" in
      Heap.decref s;
      (match s with Value.VStr n -> n.rc <- 1 | _ -> assert false);
      Alcotest.check_raises "audit catches the second free"
        (Failure "heap audit: double free of str#1")
        (fun () -> Heap.decref s);
      let a = Heap.new_arr () in
      let o = Heap.new_obj 0 [||] in
      let t = Heap.new_str "y" in
      Heap.decref t;
      (* objects number in their own id space *)
      Alcotest.(check (list string)) "leaks by kind#id" [ "obj#1"; "arr#2" ]
        (Heap.live_allocations ());
      Heap.decref a;
      Alcotest.(check (list string)) "one leak left" [ "obj#1" ]
        (Heap.live_allocations ());
      (* the object's class has no destructor hook installed here *)
      Heap.decref o;
      Alcotest.(check (list string)) "audit clean" []
        (Heap.live_allocations ()));
]

(* A type guard's runtime check, [Rtype.value_matches t v], decides on the
   value's tag, countedness, packedness and class; it must answer exactly
   what the lattice does for the value's most precise type. *)
let guard_tests = [
  t "value_matches is subtype (of_value v)" (fun () ->
      let module R = Hhbc.Rtype in
      ignore (Vclass.register ~name:"GA" ~parent:None ~interfaces:[]
                ~props:[] ~methods:[]);
      ignore (Vclass.register ~name:"GB" ~parent:(Some "GA") ~interfaces:[]
                ~props:[] ~methods:[]);
      ignore (Vclass.register ~name:"GC" ~parent:None ~interfaces:[]
                ~props:[] ~methods:[]);
      let saved = !R.subclass_hook in
      R.subclass_hook :=
        (fun sub sup ->
           String.equal sub sup
           || (match Vclass.find_opt sub with
               | Some c -> Vclass.instanceof c sup
               | None -> false));
      Fun.protect ~finally:(fun () -> R.subclass_hook := saved) (fun () ->
          let mixed = Heap.new_arr_node () in
          ignore (Varray.set_raw mixed.data (Value.KStr "k") (Value.VInt 1));
          let values =
            [ ("uninit", Value.VUninit); ("null", VNull);
              ("bool", VBool true); ("int", VInt 3); ("double", VDbl 1.5);
              ("static str", Heap.static_str "s"); ("counted str", Heap.new_str "c");
              ("packed arr", Heap.new_arr ()); ("mixed arr", VArr mixed);
              ("obj GA", Heap.new_obj (Vclass.find "GA").c_id [||]);
              ("obj GB", Heap.new_obj (Vclass.find "GB").c_id [||]);
              ("obj GC", Heap.new_obj (Vclass.find "GC").c_id [||]) ]
          in
          let types =
            [ R.bottom; R.uninit; R.init_null; R.null; R.bool; R.int; R.dbl;
              R.num; R.sstr; R.str; R.cstr; R.arr; R.packed_arr; R.obj;
              R.uncounted; R.uncounted_init; R.init_cell; R.cell; R.counted;
              R.join R.packed_arr R.int; R.join (R.obj_exact "GA") R.null ]
            @ List.concat_map (fun c -> [ R.obj_exact c; R.obj_sub c ])
              [ "GA"; "GB"; "GC"; "Missing" ]
          in
          let hits = ref 0 and misses = ref 0 in
          List.iter
            (fun ty ->
               List.iter
                 (fun (what, v) ->
                    let want = R.subtype (R.of_value v) ty in
                    if want then incr hits else incr misses;
                    Alcotest.(check bool)
                      (Printf.sprintf "%s in %s" what (R.to_string ty))
                      want (R.value_matches ty v))
                 values)
            types;
          Alcotest.(check bool) "both answers occur" true
            (!hits > 0 && !misses > 0);
          List.iter (fun (_, v) -> Heap.decref v) values));
]

let array_tests = [
  t "append and get" (fun () ->
      let node = Heap.new_arr_node () in
      ignore (Varray.append_raw node.data (Value.VInt 10));
      ignore (Varray.append_raw node.data (Value.VInt 20));
      Alcotest.(check int) "len" 2 (Varray.length node.data);
      Alcotest.(check bool) "get 1" true
        (Varray.get node.data (KInt 1) = Value.VInt 20);
      Alcotest.(check bool) "packed" true node.data.packed;
      Heap.decref (VArr node));
  t "string keys break packedness" (fun () ->
      let node = Heap.new_arr_node () in
      ignore (Varray.set_raw node.data (KStr "k") (Value.VInt 1));
      Alcotest.(check bool) "not packed" false node.data.packed;
      Heap.decref (VArr node));
  t "insertion order preserved" (fun () ->
      let node = Heap.new_arr_node () in
      ignore (Varray.set_raw node.data (KStr "b") (Value.VInt 1));
      ignore (Varray.set_raw node.data (KStr "a") (Value.VInt 2));
      ignore (Varray.set_raw node.data (KInt 7) (Value.VInt 3));
      let keys = Varray.keys node.data in
      Alcotest.(check bool) "order" true
        (keys = [ KStr "b"; KStr "a"; KInt 7 ]);
      Heap.decref (VArr node));
  t "next integer key after explicit" (fun () ->
      let node = Heap.new_arr_node () in
      ignore (Varray.set_raw node.data (KInt 5) (Value.VInt 1));
      let k = Varray.append_raw node.data (Value.VInt 2) in
      Alcotest.(check bool) "key is 6" true (k = Value.KInt 6);
      Heap.decref (VArr node));
  t "cow on shared array" (fun () ->
      let node = Heap.new_arr_node () in
      ignore (Varray.append_raw node.data (Value.VInt 1));
      Heap.incref (VArr node);    (* simulate second owner *)
      let node' = Varray.set node (KInt 0) (Value.VInt 99) in
      Alcotest.(check bool) "different node" true (node != node');
      Alcotest.(check bool) "original untouched" true
        (Varray.get node.data (KInt 0) = Value.VInt 1);
      Alcotest.(check bool) "copy updated" true
        (Varray.get node'.data (KInt 0) = Value.VInt 99);
      Heap.decref (VArr node);
      Heap.decref (VArr node'));
  t "no cow when exclusive" (fun () ->
      let node = Heap.new_arr_node () in
      ignore (Varray.append_raw node.data (Value.VInt 1));
      let node' = Varray.set node (KInt 0) (Value.VInt 2) in
      Alcotest.(check bool) "same node" true (node == node');
      Heap.decref (VArr node'));
  t "unset compacts and reorders index" (fun () ->
      let node = Heap.new_arr_node () in
      ignore (Varray.append_raw node.data (Value.VInt 10));
      ignore (Varray.append_raw node.data (Value.VInt 20));
      ignore (Varray.append_raw node.data (Value.VInt 30));
      let node = Varray.unset node (KInt 1) in
      Alcotest.(check int) "len" 2 (Varray.length node.data);
      Alcotest.(check bool) "0 remains" true (Varray.get node.data (KInt 0) = Value.VInt 10);
      Alcotest.(check bool) "1 gone" true (Varray.find_opt node.data (KInt 1) = None);
      Alcotest.(check bool) "2 remains" true (Varray.get node.data (KInt 2) = Value.VInt 30);
      Heap.decref (VArr node));
]

(* ---- The array model: Varray against an association-list reference ---- *)

(* A reference array: entries in insertion order, each value a token
   naming the counted string it holds; [packed] and [next_ikey] follow
   PHP's rules as the reference states them. *)
type ref_arr = {
  r_entries : (Value.akey * int) list;
  r_packed : bool;
  r_next : int;
}

let ref_empty = { r_entries = []; r_packed = true; r_next = 0 }

let ref_set (r : ref_arr) (k : Value.akey) (tok : int) : ref_arr =
  if List.mem_assoc k r.r_entries then
    { r with
      r_entries =
        List.map (fun (k', t) -> (k', if k' = k then tok else t)) r.r_entries }
  else
    let n = List.length r.r_entries in
    { r_entries = r.r_entries @ [ (k, tok) ];
      r_packed = r.r_packed && k = Value.KInt n;
      r_next = (match k with KInt i when i >= r.r_next -> i + 1 | _ -> r.r_next) }

let ref_unset (r : ref_arr) (k : Value.akey) : ref_arr =
  let rec pos i = function
    | [] -> None
    | (k', _) :: rest -> if k' = k then Some i else pos (i + 1) rest
  in
  match pos 0 r.r_entries with
  | None -> r
  | Some p ->
    let entries = List.remove_assoc k r.r_entries in
    let n = List.length entries in
    { r with r_entries = entries;
             r_packed = (n = 0) || (r.r_packed && p = n) }

(* Tokens are counted strings: "t<n>". *)
let tok_of (v : Value.value) : int =
  match v with
  | VStr s -> int_of_string (String.sub s.data 1 (String.length s.data - 1))
  | _ -> Alcotest.fail "array value is not a token string"

let check_arr (what : string) (r : ref_arr) (d : Value.arr) =
  let got =
    List.map (fun (k, v) -> (k, tok_of v))
      (List.combine (Varray.keys d) (Varray.values d))
  in
  Alcotest.(check int) (what ^ ": count") (List.length r.r_entries) (Varray.length d);
  Alcotest.(check bool) (what ^ ": entries in order") true (got = r.r_entries);
  Alcotest.(check bool) (what ^ ": packed") r.r_packed d.packed;
  Alcotest.(check int) (what ^ ": next_ikey") r.r_next d.next_ikey;
  (* the packed kind keeps no index; a mixed array indexes every key *)
  Alcotest.(check bool) (what ^ ": index iff mixed") (not d.packed)
    (d.index != Value.no_index);
  if not d.packed then
    Alcotest.(check int) (what ^ ": index size") d.count (Value.Ktbl.length d.index);
  List.iteri
    (fun i (k, tok) ->
       match Varray.find_opt d k with
       | Some v -> Alcotest.(check int) (what ^ ": find_opt") tok (tok_of v)
       | None -> Alcotest.failf "%s: key %d missing" what i)
    r.r_entries

let keys_pool =
  Value.[| KInt 0; KInt 1; KInt 2; KInt 3; KInt 5; KInt (-1);
           KStr "a"; KStr "b"; KStr "0" |]

(* [steps] random operations over three slots, each holding one reference
   to an array node (slots may share a node, which the next write through
   either copies).  After every step each slot matches its reference, and
   the heap holds exactly the distinct nodes and token strings the slots
   reach. *)
let run_array_model (seed : int) (steps : int) =
  let rs = Random.State.make [| seed |] in
  let nslots = 3 in
  let nodes = Array.init nslots (fun _ -> Heap.new_arr_node ()) in
  let refs = Array.make nslots ref_empty in
  let next_tok = ref 0 in
  let fresh () =
    incr next_tok;
    (!next_tok, Heap.new_str ("t" ^ string_of_int !next_tok))
  in
  let check step =
    Array.iteri
      (fun i r ->
         check_arr (Printf.sprintf "seed %d step %d slot %d" seed step i)
           r nodes.(i).data)
      refs;
    let distinct_nodes =
      Array.to_list (Array.map (fun n -> n.Value.id) nodes)
      |> List.sort_uniq compare |> List.length
    in
    let toks =
      Array.to_list refs
      |> List.concat_map (fun r -> List.map snd r.r_entries)
      |> List.sort_uniq compare
    in
    let live = distinct_nodes + List.length toks in
    Alcotest.(check int) (Printf.sprintf "seed %d step %d: live" seed step)
      live (Heap.stats ()).live;
    Alcotest.(check int) (Printf.sprintf "seed %d step %d: audit" seed step)
      live (List.length (Heap.live_allocations ()))
  in
  for step = 1 to steps do
    let i = Random.State.int rs nslots in
    let k = keys_pool.(Random.State.int rs (Array.length keys_pool)) in
    (match Random.State.int rs 7 with
     | 0 | 1 ->
       let tok, v = fresh () in
       nodes.(i) <- Varray.set nodes.(i) k v;
       refs.(i) <- ref_set refs.(i) k tok
     | 2 ->
       let tok, v = fresh () in
       let r = refs.(i) in
       nodes.(i) <- Varray.append nodes.(i) v;
       refs.(i) <- ref_set r (KInt r.r_next) tok
     | 3 ->
       nodes.(i) <- Varray.unset nodes.(i) k;
       refs.(i) <- ref_unset refs.(i) k
     | 4 ->
       let want = List.assoc_opt k refs.(i).r_entries in
       Alcotest.(check (option int)) "find_opt" want
         (Option.map tok_of (Varray.find_opt nodes.(i).data k));
       (match Varray.get nodes.(i).data k, want with
        | VNull, None -> ()
        | v, Some t -> Alcotest.(check int) "get" t (tok_of v)
        | _ -> Alcotest.fail "get of a missing key is not null")
     | 5 ->
       (* share slot i's node into slot j *)
       let j = Random.State.int rs nslots in
       if j <> i then begin
         Heap.incref (VArr nodes.(i));
         Heap.decref (VArr nodes.(j));
         nodes.(j) <- nodes.(i);
         refs.(j) <- refs.(i)
       end
     | _ ->
       (* a COW copy through [cow] of a shared node, then a clone_data *)
       Heap.incref (VArr nodes.(i));
       let copy = Varray.cow nodes.(i) in
       Alcotest.(check bool) "cow copies a shared node" true (copy != nodes.(i));
       check_arr "cow copy" refs.(i) copy.data;
       let clone = Heap.alloc_arr (Varray.clone_data copy.data) in
       check_arr "clone" refs.(i) clone.data;
       Heap.decref (VArr clone);
       Heap.decref (VArr copy));
    check step
  done;
  Array.iter (fun n -> Heap.decref (VArr n)) nodes;
  Alcotest.(check (list string)) "no leaks" [] (Heap.live_allocations ())

(* One array built by [ops] (int keys set to their own value, string keys
   to 0; [`U k] unsets). *)
let build ops =
  List.fold_left
    (fun node op ->
       match op with
       | `S k -> Varray.set node k (Value.VInt 0)
       | `A -> Varray.append node (Value.VInt 0)
       | `U k -> Varray.unset node k)
    (Heap.new_arr_node ()) ops

let shape (node : Value.arr Value.counted) =
  (Varray.keys node.data, node.data.packed, node.data.next_ikey,
   node.data.index != Value.no_index)

let array_model_tests = [
  t "array model: random operations against a reference" (fun () ->
      List.iter (fun seed -> run_array_model seed 300) [ 1; 2; 3; 4; 5; 6; 7; 8 ]);
  t "array kind transitions" (fun () ->
      let open Value in
      let check what ops (keys, packed, next, indexed) =
        let node = build ops in
        let k, p, n, ix = shape node in
        Alcotest.(check bool) (what ^ ": keys") true (k = keys);
        Alcotest.(check bool) (what ^ ": packed") packed p;
        Alcotest.(check int) (what ^ ": next_ikey") next n;
        Alcotest.(check bool) (what ^ ": has an index") indexed ix;
        Heap.decref (VArr node)
      in
      check "appends" [ `A; `A; `A ] ([ KInt 0; KInt 1; KInt 2 ], true, 3, false);
      check "middle unset" [ `A; `A; `A; `U (KInt 1) ]
        ([ KInt 0; KInt 2 ], false, 3, true);
      check "last unset" [ `A; `A; `A; `U (KInt 2) ]
        ([ KInt 0; KInt 1 ], true, 3, false);
      check "append after last unset" [ `A; `A; `U (KInt 1); `A ]
        ([ KInt 0; KInt 2 ], false, 3, true);
      check "next position as a key" [ `A; `S (KInt 1) ]
        ([ KInt 0; KInt 1 ], true, 2, false);
      check "non-sequential int key" [ `A; `S (KInt 5) ]
        ([ KInt 0; KInt 5 ], false, 6, true);
      check "negative key" [ `S (KInt (-1)) ] ([ KInt (-1) ], false, 0, true);
      check "string key" [ `A; `S (KStr "0") ]
        ([ KInt 0; KStr "0" ], false, 1, true);
      check "unset to empty" [ `S (KStr "a"); `U (KStr "a") ] ([], true, 0, false);
      check "unset to empty, then append" [ `A; `A; `U (KInt 1); `U (KInt 0); `A ]
        ([ KInt 2 ], false, 3, true);
      check "mixed emptied, then key 0" [ `S (KStr "a"); `U (KStr "a"); `S (KInt 0) ]
        ([ KInt 0 ], true, 1, false));
  t "clones of packed and mixed arrays" (fun () ->
      let open Value in
      let packed = build [ `A; `A ] and mixed = build [ `A; `S (KStr "k") ] in
      List.iter
        (fun (what, node) ->
           let c = Varray.clone_data node.data in
           Alcotest.(check bool) (what ^ ": same keys") true
             (Varray.keys c = Varray.keys node.data);
           Alcotest.(check bool) (what ^ ": same kind") node.data.packed c.packed;
           Alcotest.(check bool) (what ^ ": shares no entries") true
             (c.entries != node.data.entries);
           if c.packed then
             Alcotest.(check bool) (what ^ ": no index") true (c.index == no_index)
           else
             Alcotest.(check bool) (what ^ ": own index") true
               (c.index != node.data.index && c.index != no_index);
           (* writing the clone leaves the original alone *)
           let cn = Heap.alloc_arr c in
           let cn = Varray.set cn (KStr "new") (VInt 1) in
           Alcotest.(check int) (what ^ ": original count") 2 node.data.count;
           Alcotest.(check bool) (what ^ ": original lookup") true
             (Varray.find_opt node.data (KStr "new") = None);
           Heap.decref (VArr cn);
           Heap.decref (VArr node))
        [ ("packed", packed); ("mixed", mixed) ];
      Alcotest.(check (list string)) "no leaks" [] (Heap.live_allocations ()));
]

let class_tests = [
  t "registration and layout" (fun () ->
      let a = Vclass.register ~name:"A" ~parent:None ~interfaces:[]
          ~props:[ "x"; "y" ] ~methods:[ ("m", 0) ] in
      let b = Vclass.register ~name:"B" ~parent:(Some "A") ~interfaces:[]
          ~props:[ "z" ] ~methods:[ ("m", 1); ("n", 2) ] in
      Alcotest.(check int) "A props" 2 (Vclass.num_props a);
      Alcotest.(check int) "B props (inherited first)" 3 (Vclass.num_props b);
      Alcotest.(check int) "B x slot" 0 (Vclass.slot_of_name b "x");
      Alcotest.(check int) "B z slot" 2 (Vclass.slot_of_name b "z");
      Alcotest.(check int) "no such slot" (-1) (Vclass.slot_of_name b "w");
      (* override *)
      Alcotest.(check (option int)) "B::m overridden" (Some 1)
        (Option.map (fun m -> m.Vclass.m_func) (Vclass.lookup_method b "m"));
      Alcotest.(check (option int)) "A::m original" (Some 0)
        (Option.map (fun m -> m.Vclass.m_func) (Vclass.lookup_method a "m")));
  t "instanceof over hierarchy and interfaces" (fun () ->
      ignore (Vclass.register ~name:"I_base" ~parent:None ~interfaces:[ "Iface" ]
                ~props:[] ~methods:[]);
      let c = Vclass.register ~name:"Kid" ~parent:(Some "I_base") ~interfaces:[]
          ~props:[] ~methods:[] in
      Alcotest.(check bool) "self" true (Vclass.instanceof c "Kid");
      Alcotest.(check bool) "parent" true (Vclass.instanceof c "I_base");
      Alcotest.(check bool) "interface inherited" true (Vclass.instanceof c "Iface");
      Alcotest.(check bool) "unrelated" false (Vclass.instanceof c "Other"));
]

let suite =
  ("runtime",
   value_tests @ heap_tests @ array_tests @ array_model_tests @ class_tests
   @ guard_tests)
