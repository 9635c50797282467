(** Tests for hhbbc: the Rtype lattice and the ahead-of-time inference +
    assertion-insertion passes. *)

module R = Hhbc.Rtype

let t name f = Alcotest.test_case name `Quick f

let rt = Alcotest.testable R.pp R.equal

let lattice_tests = [
  t "subtype basics" (fun () ->
      Alcotest.(check bool) "int <= cell" true (R.subtype R.int R.cell);
      Alcotest.(check bool) "int <= uncounted" true (R.subtype R.int R.uncounted);
      Alcotest.(check bool) "cstr not <= uncounted" false (R.subtype R.cstr R.uncounted);
      Alcotest.(check bool) "sstr <= uncounted" true (R.subtype R.sstr R.uncounted);
      Alcotest.(check bool) "num not <= int" false (R.subtype R.num R.int);
      Alcotest.(check bool) "bottom <= everything" true (R.subtype R.bottom R.int));
  t "join and meet" (fun () ->
      Alcotest.check rt "int|dbl = num" R.num (R.join R.int R.dbl);
      Alcotest.check rt "meet num int = int" R.int (R.meet R.num R.int);
      Alcotest.check rt "meet int dbl = bottom" R.bottom (R.meet R.int R.dbl);
      Alcotest.check rt "join sstr cstr = str" R.str (R.join R.sstr R.cstr));
  t "packed array specialization" (fun () ->
      Alcotest.(check bool) "packed <= arr" true (R.subtype R.packed_arr R.arr);
      Alcotest.(check bool) "arr not <= packed" false (R.subtype R.arr R.packed_arr);
      Alcotest.check rt "join loses packed" R.arr (R.join R.packed_arr R.arr));
  t "countedness predicates" (fun () ->
      Alcotest.(check bool) "int not counted" true (R.not_counted R.int);
      Alcotest.(check bool) "obj definitely counted" true (R.definitely_counted R.obj);
      Alcotest.(check bool) "str maybe counted" true (R.maybe_counted R.str);
      Alcotest.(check bool) "str not definitely counted" false (R.definitely_counted R.str);
      Alcotest.(check bool) "sstr not counted" true (R.not_counted R.sstr));
  t "is_specific" (fun () ->
      Alcotest.(check bool) "int specific" true (R.is_specific R.int);
      Alcotest.(check bool) "str specific" true (R.is_specific R.str);
      Alcotest.(check bool) "num not specific" false (R.is_specific R.num);
      Alcotest.(check bool) "cell not specific" false (R.is_specific R.cell));
  t "of_value precision" (fun () ->
      Runtime.Heap.reset ();
      Alcotest.check rt "int value" R.int (R.of_value (Runtime.Value.VInt 3));
      let s = Runtime.Heap.new_str "x" in
      Alcotest.check rt "counted str" R.cstr (R.of_value s);
      Runtime.Heap.decref s;
      let ss = Runtime.Heap.static_str "y" in
      Alcotest.check rt "static str" R.sstr (R.of_value ss);
      let a = Runtime.Heap.new_arr () in
      Alcotest.check rt "fresh array is packed" R.packed_arr (R.of_value a);
      Runtime.Heap.decref a);
]

let qcheck_lattice =
  let base_types =
    [| R.bottom; R.uninit; R.init_null; R.bool; R.int; R.dbl; R.num;
       R.sstr; R.cstr; R.str; R.arr; R.packed_arr; R.obj;
       R.uncounted; R.init_cell; R.cell |]
  in
  let gen_t = QCheck.Gen.(map (fun i -> base_types.(i)) (int_range 0 (Array.length base_types - 1))) in
  let arb = QCheck.make ~print:R.to_string gen_t in
  let open QCheck in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"join is an upper bound" ~count:300 (pair arb arb)
         (fun (a, b) ->
            let j = R.join a b in
            R.subtype a j && R.subtype b j));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"meet is a lower bound" ~count:300 (pair arb arb)
         (fun (a, b) ->
            let m = R.meet a b in
            R.subtype m a && R.subtype m b));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"join idempotent/commutative" ~count:300 (pair arb arb)
         (fun (a, b) ->
            R.equal (R.join a a) a && R.equal (R.join a b) (R.join b a)));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"subtype antisymmetry-ish" ~count:300 (pair arb arb)
         (fun (a, b) ->
            if R.subtype a b && R.subtype b a then R.equal a b else true));
  ]

(* --- inference --- *)

let infer_fn src fname =
  let u = Hhbc.Emit.compile src in
  let fid = Option.get (Hhbc.Hunit.find_func u fname) in
  let f = Hhbc.Hunit.func u fid in
  (u, f, Hhbbc.Infer.analyze f)

let infer_tests = [
  t "loop counter inferred as int" (fun () ->
      let _, f, states = infer_fn
          "function f($n) { $s = 0; for ($i = 0; $i < 10; $i++) { $s += $i; } return $s; }" "f"
      in
      (* find the IncDecL on $i and check its input local type *)
      let found = ref false in
      Array.iteri
        (fun pc instr ->
           match instr, states.(pc) with
           | Hhbc.Instr.IncDecL (l, _), Some st when f.fn_local_names.(l) = "i" ->
             found := true;
             Alcotest.check rt "i : Int" R.int st.Hhbbc.Infer.locals.(l)
           | _ -> ())
        f.fn_body;
      Alcotest.(check bool) "found IncDecL" true !found);
  t "hint gives parameter type" (fun () ->
      let _, _, states = infer_fn "function f(int $x) { return $x + 1; }" "f" in
      match states.(0) with
      | Some st -> Alcotest.check rt "param x : Int" R.int st.Hhbbc.Infer.locals.(0)
      | None -> Alcotest.fail "entry dead?");
  t "unhinted param is InitCell" (fun () ->
      let _, _, states = infer_fn "function f($x) { return $x; }" "f" in
      match states.(0) with
      | Some st -> Alcotest.check rt "param x" R.init_cell st.Hhbbc.Infer.locals.(0)
      | None -> Alcotest.fail "entry dead?");
  t "join across branches widens" (fun () ->
      let _, f, states = infer_fn
          "function f($c) { if ($c) { $x = 1; } else { $x = 2.5; } return $x + 0; }" "f"
      in
      (* at the CGetL of $x after the join, type should be Int|Dbl *)
      let found = ref false in
      Array.iteri
        (fun pc instr ->
           match instr, states.(pc) with
           | Hhbc.Instr.CGetL l, Some st when f.fn_local_names.(l) = "x" ->
             found := true;
             Alcotest.check rt "x : num" R.num st.Hhbbc.Infer.locals.(l)
           | _ -> ())
        f.fn_body;
      Alcotest.(check bool) "found CGetL x" true !found);
  t "builtin return type used" (fun () ->
      let _, f, states = infer_fn
          "function f($a) { $n = count($a); return $n + 1; }" "f"
      in
      let found = ref false in
      Array.iteri
        (fun pc instr ->
           match instr, states.(pc) with
           | Hhbc.Instr.CGetL l, Some st when f.fn_local_names.(l) = "n" ->
             found := true;
             Alcotest.(check bool) "n <= Int" true
               (R.subtype st.Hhbbc.Infer.locals.(l) R.int)
           | _ -> ())
        f.fn_body;
      Alcotest.(check bool) "found" true !found);
]

(* --- assertion insertion + behaviour preservation --- *)

let run_with_hhbbc src entry =
  let u = Vm.Loader.load src in
  ignore (Hhbbc.Assert_insert.run u);
  let r, out = Vm.Output.capture (fun () -> Vm.Interp.call_by_name u entry []) in
  Runtime.Heap.decref r;
  (out, Runtime.Heap.live_allocations ())

let run_without src entry =
  let u = Vm.Loader.load src in
  let r, out = Vm.Output.capture (fun () -> Vm.Interp.call_by_name u entry []) in
  Runtime.Heap.decref r;
  out

let diff_programs = [
  ("loops", {|
    function main() {
      $s = 0;
      for ($i = 0; $i < 20; $i++) { $s += $i * 2; }
      echo $s;
    } |});
  ("exceptions", {|
    function main() {
      try {
        for ($i = 0; $i < 5; $i++) { if ($i == 3) { throw new Exception("x" . $i); } echo $i; }
      } catch (Exception $e) { echo "c:", $e->getMessage(); }
    } |});
  ("arrays-objects", {|
    class P { public $v = 0; function __construct($v) { $this->v = $v; } }
    function main() {
      $list = [];
      for ($i = 0; $i < 4; $i++) { $list[] = new P($i * $i); }
      $t = 0;
      foreach ($list as $p) { $t += $p->v; }
      echo $t;
    } |});
  ("strings", {|
    function main() {
      $s = "";
      for ($i = 0; $i < 5; $i++) { $s .= "ab"; }
      echo strlen($s), ":", $s;
    } |});
]

let insertion_tests =
  [
    t "asserts inserted for typed locals" (fun () ->
        let u = Hhbc.Emit.compile
            "function f() { $s = 0; for ($i = 0; $i < 9; $i++) { $s += $i; } return $s; }"
        in
        let n = Hhbbc.Assert_insert.run u in
        Alcotest.(check bool) "some asserts" true (n > 0);
        let f = Hhbc.Hunit.func u 0 in
        let has_assert = Array.exists
            (function Hhbc.Instr.AssertRATL (_, t) -> R.equal t R.int | _ -> false)
            f.fn_body
        in
        Alcotest.(check bool) "an Int assert exists" true has_assert);
    t "jump targets remain valid after insertion" (fun () ->
        let u = Hhbc.Emit.compile
            "function f($n) { $s = 0; while ($s < $n) { $s += 1; if ($s == 5) { break; } } return $s; }"
        in
        ignore (Hhbbc.Assert_insert.run u);
        let f = Hhbc.Hunit.func u 0 in
        Array.iter
          (fun i ->
             List.iter
               (fun t ->
                  Alcotest.(check bool) "in range" true (t >= 0 && t < Array.length f.fn_body))
               (Hhbc.Instr.branch_targets i))
          f.fn_body);
  ]
  @ List.map
    (fun (name, src) ->
       t ("behaviour preserved: " ^ name) (fun () ->
           let expected = run_without src "main" in
           let got, leaks = run_with_hhbbc src "main" in
           Alcotest.(check string) "same output" expected got;
           Alcotest.(check (list string)) "no leaks" [] leaks))
    diff_programs

(* --- bytecode optimizations --- *)

let bc_opt_tests = [
  t "jump threading collapses jmp chains" (fun () ->
      let u = Hhbc.Emit.compile
          "function f($c) { if ($c) { if ($c) { return 1; } } return 2; }"
      in
      let f = Hhbc.Hunit.func u 0 in
      ignore (Hhbbc.Bc_opt.run u);
      (* after threading, no conditional branch targets an unconditional Jmp *)
      Array.iter
        (fun i ->
           List.iter
             (fun t ->
                match f.fn_body.(t) with
                | Hhbc.Instr.Jmp t' ->
                  Alcotest.(check bool) "no jmp-to-jmp remains" true (t' = t)
                | _ -> ())
             (Hhbc.Instr.branch_targets i))
        f.fn_body);
  t "unreachable code becomes Nop" (fun () ->
      let u = Hhbc.Emit.compile
          "function f() { return 1; echo \"dead\"; return 2; }"
      in
      let f = Hhbc.Hunit.func u 0 in
      let n = Hhbbc.Bc_opt.run u in
      Alcotest.(check bool) "some dead instructions" true (n > 0);
      let has_dead_print =
        Array.exists (fun i -> i = Hhbc.Instr.Print) f.fn_body
      in
      Alcotest.(check bool) "dead echo removed" false has_dead_print);
  t "bytecode optimizations preserve behaviour" (fun () ->
      let src = {|
        function main() {
          $t = 0;
          for ($i = 0; $i < 10; $i++) {
            if ($i % 2 == 0) { $t += $i; } else { $t -= 1; }
          }
          echo $t;
          return 0;
          echo "dead";
        }
      |} in
      let without = run_without src "main" in
      let u = Vm.Loader.load src in
      ignore (Hhbbc.Assert_insert.run u);
      ignore (Hhbbc.Bc_opt.run u);
      let r, got = Vm.Output.capture (fun () -> Vm.Interp.call_by_name u "main" []) in
      Runtime.Heap.decref r;
      Alcotest.(check string) "same output" without got;
      Alcotest.(check (list string)) "no leaks" [] (Runtime.Heap.live_allocations ()));
]

let suite =
  ("hhbbc",
   lattice_tests @ qcheck_lattice @ infer_tests @ insertion_tests @ bc_opt_tests)
