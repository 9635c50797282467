(** Edge cases and failure behaviour: PHP fatals, destructor reentrancy,
    chain-length limits, polymorphic inline caches, and smoke tests for the
    server-simulation harness. *)

let t name f = Alcotest.test_case name `Quick f

let load_run ?(mode = Core.Jit_options.Interp) src =
  let u = Vm.Loader.load src in
  ignore (Hhbbc.Assert_insert.run u);
  ignore (Hhbbc.Bc_opt.run u);
  let opts = Core.Jit_options.default () in
  opts.mode <- mode;
  ignore (Core.Engine.install ~opts u);
  let r, out = Vm.Output.capture (fun () -> Vm.Interp.call_by_name u "main" []) in
  Runtime.Heap.decref r;
  out

let expect_fatal src (fragment : string) =
  match load_run src with
  | _ -> Alcotest.fail "expected a PHP fatal"
  | exception Runtime.Value.Php_fatal msg ->
    let contains hay needle =
      let nl = String.length needle and hl = String.length hay in
      let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "message %S mentions %S" msg fragment)
      true (contains msg fragment)

let fatal_tests = [
  t "division by zero is fatal" (fun () ->
      expect_fatal {| function main() { $x = 0; echo 1 / $x; } |} "division");
  t "modulo by zero is fatal" (fun () ->
      expect_fatal {| function main() { $x = 0; echo 1 % $x; } |} "modulo");
  t "type-hint violation is fatal" (fun () ->
      expect_fatal
        {| function f(int $x) { return $x; } function main() { f("nope"); } |}
        "expects int");
  t "undefined function is fatal" (fun () ->
      expect_fatal {| function main() { no_such_function(); } |}
        "undefined function");
  t "method call on non-object is fatal" (fun () ->
      expect_fatal {| function main() { $x = 3; $x->m(); } |} "non-object");
  t "undefined variable read is fatal" (fun () ->
      expect_fatal {| function main() { echo $undefined; } |} "undefined variable");
  t "undefined property is fatal" (fun () ->
      expect_fatal
        {| class C {} function main() { $c = new C(); echo $c->nope; } |}
        "undefined property");
  t "missing required argument is fatal" (fun () ->
      expect_fatal
        {| function f($a, $b) { return $a; } function main() { f(1); } |}
        "missing argument");
  t "arithmetic on arrays is fatal" (fun () ->
      expect_fatal {| function main() { echo [1] + [2]; } |} "unsupported operand");
]

let destructor_tests = [
  t "destructor can allocate and call functions" (fun () ->
      let out = load_run {|
        function log_it($s) { echo "[", $s, "]"; return strlen($s); }
        class Res {
          public $tag = "";
          function __construct($t) { $this->tag = $t; }
          function __destruct() {
            $msg = "free:" . $this->tag;
            log_it($msg);
            $tmp = [1, 2, 3];
            $tmp[] = count($tmp);
          }
        }
        function main() {
          $a = new Res("a");
          $a = new Res("b");   # destroys a here
          echo "x";
        }
      |} in
      Alcotest.(check string) "order" "[free:a]x[free:b]" out;
      Alcotest.(check (list string)) "no leaks" [] (Runtime.Heap.live_allocations ()));
  t "destructor chain (object graph teardown)" (fun () ->
      let out = load_run {|
        class Node {
          public $name = "";
          public $next = null;
          function __construct($n) { $this->name = $n; }
          function __destruct() { echo "~", $this->name; }
        }
        function main() {
          $a = new Node("a");
          $b = new Node("b");
          $c = new Node("c");
          $a->next = $b;
          $b->next = $c;
          $b = null; $c = null;   # still reachable from a
          echo "|";
          $a = null;              # tears down the whole chain
          echo "|";
        }
      |} in
      Alcotest.(check string) "cascade order" "|~a~b~c|" out);
  t "destructor timing identical under region JIT" (fun () ->
      let src = {|
        class D {
          public $i = 0;
          function __construct($i) { $this->i = $i; }
          function __destruct() { echo "~", $this->i; }
        }
        function churn($i) { $d = new D($i); return $i * 2; }
        function main() {
          $t = 0;
          for ($i = 0; $i < 6; $i++) { $t += churn($i); echo "."; }
          echo $t;
        }
      |} in
      let a = load_run ~mode:Core.Jit_options.Interp src in
      let b = load_run ~mode:Core.Jit_options.Region src in
      Alcotest.(check string) "same destructor interleaving" a b);
]

let engine_tests = [
  t "srckey chain limit falls back to the interpreter" (fun () ->
      (* a call site seeing many types: only max_live_per_srckey
         specializations are compiled, the rest interpret, output stays right *)
      let src = {|
        function id($x) { return $x; }
        function main() {
          echo id(1), "|";
          echo id(1.5), "|";
          echo id("s"), "|";
          echo id([1]) == [1] ? "arr" : "?", "|";
          echo id(true), "|";
          echo id(2), "|";
        }
      |} in
      let u = Vm.Loader.load src in
      let opts = Core.Jit_options.default () in
      opts.mode <- Core.Jit_options.Tracelet;
      opts.max_live_per_srckey <- 2;
      ignore (Core.Engine.install ~opts u);
      let run () =
        let r, out = Vm.Output.capture (fun () -> Vm.Interp.call_by_name u "main" []) in
        Runtime.Heap.decref r; out
      in
      let o1 = run () and o2 = run () in
      Alcotest.(check string) "stable" o1 o2;
      Alcotest.(check string) "correct" "1|1.5|s|arr|1|2|" o1;
      Alcotest.(check (list string)) "no leaks" [] (Runtime.Heap.live_allocations ()));
  t "inline cache handles receiver class changes" (fun () ->
      let src = {|
        class A { function tag() { return "a"; } }
        class B { function tag() { return "b"; } }
        function main() {
          $objs = [];
          for ($i = 0; $i < 8; $i++) {
            if ($i % 2 == 0) { $objs[] = new A(); } else { $objs[] = new B(); }
          }
          $s = "";
          foreach ($objs as $o) { $s .= $o->tag(); }
          echo $s;
        }
      |} in
      let a = load_run ~mode:Core.Jit_options.Interp src in
      let b = load_run ~mode:Core.Jit_options.Tracelet src in
      let c = load_run ~mode:Core.Jit_options.Region src in
      Alcotest.(check string) "tracelet" a b;
      Alcotest.(check string) "region" a c);
  t "unset of an element leaves an unset local unset" (fun () ->
      let src = {|
        function f($n) {
          if ($n > 100) { $a = [1]; }
          unset($a[0]);
          return isset($a) ? "set" : "unset";
        }
        function main() {
          $s = "";
          for ($i = 0; $i < 20; $i++) { $s = $s . f($i); }
          echo $s;
        }
      |} in
      let a = load_run ~mode:Core.Jit_options.Interp src in
      Alcotest.(check string) "tracelet" a
        (load_run ~mode:Core.Jit_options.Tracelet src);
      Alcotest.(check string) "region" a
        (load_run ~mode:Core.Jit_options.Region src));
  t "deep recursion works compiled" (fun () ->
      let src = {|
        function down($n) { if ($n == 0) { return 0; } return 1 + down($n - 1); }
        function main() { echo down(300); }
      |} in
      Alcotest.(check string) "depth" "300"
        (load_run ~mode:Core.Jit_options.Region src));
  t "retranslate-all twice is harmless" (fun () ->
      let src = {| function main() { $s = 0; for ($i = 0; $i < 20; $i++) { $s += $i; } echo $s; } |} in
      let u = Vm.Loader.load src in
      let opts = Core.Jit_options.default () in
      opts.mode <- Core.Jit_options.Region;
      let eng = Core.Engine.install ~opts u in
      let run () =
        let r, out = Vm.Output.capture (fun () -> Vm.Interp.call_by_name u "main" []) in
        Runtime.Heap.decref r; out
      in
      let o1 = run () in
      ignore (Core.Engine.retranslate_all eng);
      let o2 = run () in
      ignore (Core.Engine.retranslate_all eng);
      let o3 = run () in
      Alcotest.(check string) "first/second" o1 o2;
      Alcotest.(check string) "second/third" o2 o3);
]

let harness_tests = [
  t "loading a new unit severs the previous engine's hooks" (fun () ->
      (* regression: a JIT engine installed for one unit must not receive
         frames from a later, unrelated unit (stale translation_hook) *)
      ignore (Server.Perflab.run Core.Jit_options.Region);
      let u = Vm.Loader.load
          "function fib($n) { if ($n < 2) { return $n; } return fib($n-1) + fib($n-2); }"
      in
      for _ = 1 to 50 do
        let v = Vm.Interp.call_by_name u "fib" [ Runtime.Value.VInt 10 ] in
        Runtime.Heap.decref v
      done;
      Alcotest.(check (list string)) "no leaks" []
        (Runtime.Heap.live_allocations ()));
  t "perflab is deterministic" (fun () ->
      let a = Server.Perflab.run Core.Jit_options.Tracelet in
      let b = Server.Perflab.run Core.Jit_options.Tracelet in
      Alcotest.(check (float 0.0)) "identical cycles"
        a.Server.Perflab.r_weighted b.Server.Perflab.r_weighted;
      Alcotest.(check int) "identical output hash"
        a.Server.Perflab.r_output_hash b.Server.Perflab.r_output_hash);
  t "all endpoints agree across modes (workload sanity)" (fun () ->
      let run mode =
        let u = Server.Serving.load_unit () in
        let opts = Core.Jit_options.default () in
        opts.mode <- mode;
        let eng = Core.Engine.install ~opts u in
        let requests =
          Array.of_list
            (List.map
               (fun ep -> { Server.Serving.rq_ep = ep; rq_arg = 7 })
               Workloads.Endpoints.endpoints)
        in
        let one () =
          Array.to_list
            (Server.Serving.run ~workers:1 u eng requests)
              .Server.Serving.sv_outputs
        in
        let pre = one () in
        if mode = Core.Jit_options.Region then
          ignore (Core.Engine.retranslate_all eng);
        let post = one () in
        Alcotest.(check (list string)) "stable across phases" pre post;
        pre
      in
      let interp = run Core.Jit_options.Interp in
      let region = run Core.Jit_options.Region in
      Alcotest.(check (list string)) "endpoints equal" interp region;
      Alcotest.(check (list string)) "no leaks" []
        (Runtime.Heap.live_allocations ()));
  t "code-budget sweep is monotone-ish and bounded" (fun () ->
      let points, base_bytes = Server.Sweep.run ~fractions:[ 0.3; 1.0 ] () in
      Alcotest.(check bool) "baseline has code" true (base_bytes > 0);
      (match points with
       | [ small; full ] ->
         Alcotest.(check bool) "full budget at least as fast" true
           (full.Server.Sweep.p_perf_pct >= small.Server.Sweep.p_perf_pct -. 1.0)
       | _ -> Alcotest.fail "expected two points"));
]

let suite =
  ("edge", fatal_tests @ destructor_tests @ engine_tests @ harness_tests)
