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
      let o = Heap.new_obj 0 0 in
      let t = Heap.new_str "y" in
      Heap.decref t;
      Alcotest.(check (list string)) "leaks by kind#id" [ "arr#2"; "obj#3" ]
        (Heap.live_allocations ());
      Heap.decref a;
      Alcotest.(check (list string)) "one leak left" [ "obj#3" ]
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
              ("obj GA", Heap.new_obj (Vclass.find "GA").c_id 0);
              ("obj GB", Heap.new_obj (Vclass.find "GB").c_id 0);
              ("obj GC", Heap.new_obj (Vclass.find "GC").c_id 0) ]
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

let class_tests = [
  t "registration and layout" (fun () ->
      let a = Vclass.register ~name:"A" ~parent:None ~interfaces:[]
          ~props:[ "x"; "y" ] ~methods:[ ("m", 0) ] in
      let b = Vclass.register ~name:"B" ~parent:(Some "A") ~interfaces:[]
          ~props:[ "z" ] ~methods:[ ("m", 1); ("n", 2) ] in
      Alcotest.(check int) "A props" 2 (Vclass.num_props a);
      Alcotest.(check int) "B props (inherited first)" 3 (Vclass.num_props b);
      Alcotest.(check (option int)) "B x slot" (Some 0) (Vclass.prop_slot b "x");
      Alcotest.(check (option int)) "B z slot" (Some 2) (Vclass.prop_slot b "z");
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
  ("runtime", value_tests @ heap_tests @ array_tests @ class_tests @ guard_tests)
