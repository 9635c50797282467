(** End-to-end JIT tests: every program runs under the interpreter and under
    each JIT mode (Tracelet / ProfileOnly / Region, the latter both before
    and after retranslate-all); outputs must be identical and the heap audit
    clean.  This is the master differential suite covering the whole
    compiler pipeline. *)

let run_mode (mode : Core.Jit_options.mode) ?(retranslate = false)
    ?(tweak = fun (_ : Core.Jit_options.t) -> ()) (src : string) : string =
  let u = Vm.Loader.load src in
  ignore (Hhbbc.Assert_insert.run u);
  ignore (Hhbbc.Bc_opt.run u);
  let opts = Core.Jit_options.default () in
  opts.mode <- mode;
  tweak opts;
  let eng = Core.Engine.install ~opts u in
  let call () =
    let r, out = Vm.Output.capture (fun () -> Vm.Interp.call_by_name u "main" []) in
    Runtime.Heap.decref r;
    out
  in
  let out1 = call () in
  if retranslate then begin
    ignore (Core.Engine.retranslate_all eng);
    let out2 = call () in
    Alcotest.(check string) "same output after retranslate-all" out1 out2;
    (* run once more to exercise optimized code steadily *)
    let out3 = call () in
    Alcotest.(check string) "stable optimized output" out1 out3
  end else begin
    (* warm: run twice so translations get reused *)
    let out2 = call () in
    Alcotest.(check string) "same output on reuse" out1 out2
  end;
  let live = Runtime.Heap.live_allocations () in
  Alcotest.(check (list string)) "no leaks" [] live;
  out1

let differential name src =
  Alcotest.test_case name `Quick (fun () ->
      let expected = run_mode Core.Jit_options.Interp src in
      let tracelet = run_mode Core.Jit_options.Tracelet src in
      Alcotest.(check string) "tracelet == interp" expected tracelet;
      let profile = run_mode Core.Jit_options.ProfileOnly src in
      Alcotest.(check string) "profile == interp" expected profile;
      let region = run_mode Core.Jit_options.Region ~retranslate:true src in
      Alcotest.(check string) "region == interp" expected region)

let programs = [
  ("arith loop", {|
    function main() {
      $s = 0;
      for ($i = 0; $i < 50; $i++) { $s += $i * 3 - 1; }
      echo $s;
    } |});
  ("float mix", {|
    function main() {
      $x = 1.5;
      for ($i = 0; $i < 20; $i++) { $x = $x * 1.1 + 0.3; }
      echo (int)$x;
    } |});
  ("string building", {|
    function main() {
      $s = "";
      for ($i = 0; $i < 10; $i++) { $s = $s . $i . ","; }
      echo strlen($s), ":", $s;
    } |});
  ("paper avgPositive int and double", {|
    function avgPositive($arr) {
      $sum = 0;
      $n = 0;
      $size = count($arr);
      for ($i = 0; $i < $size; $i++) {
        $elem = $arr[$i];
        if ($elem > 0) { $sum = $sum + $elem; $n++; }
      }
      if ($n == 0) { throw new Exception("no positive numbers"); }
      return $sum / $n;
    }
    function main() {
      echo avgPositive([1, 2, 3, 4, 0 - 10]);
      echo "/";
      echo avgPositive([0.5, 1.5, 2.5]);
      echo "/";
      try { echo avgPositive([0 - 1]); }
      catch (Exception $e) { echo "E:", $e->getMessage(); }
    } |});
  ("function calls", {|
    function add($a, $b) { return $a + $b; }
    function apply_twice($x) { return add(add($x, 1), add($x, 2)); }
    function main() {
      $t = 0;
      for ($i = 0; $i < 25; $i++) { $t = add($t, apply_twice($i)); }
      echo $t;
    } |});
  ("recursion fib", {|
    function fib($n) { if ($n < 2) { return $n; } return fib($n - 1) + fib($n - 2); }
    function main() { echo fib(15); }
  |});
  ("objects getters setters", {|
    class Point {
      public $x = 0;
      public $y = 0;
      function __construct($x, $y) { $this->x = $x; $this->y = $y; }
      function getX() { return $this->x; }
      function getY() { return $this->y; }
      function scale($f) { $this->x = $this->x * $f; $this->y = $this->y * $f; }
    }
    function main() {
      $t = 0;
      for ($i = 0; $i < 20; $i++) {
        $p = new Point($i, $i + 1);
        $p->scale(2);
        $t += $p->getX() + $p->getY();
      }
      echo $t;
    } |});
  ("polymorphic dispatch", {|
    interface Shape { function area(); }
    class Square implements Shape {
      public $s = 0;
      function __construct($s) { $this->s = $s; }
      function area() { return $this->s * $this->s; }
    }
    class Rect implements Shape {
      public $w = 0;
      public $h = 0;
      function __construct($w, $h) { $this->w = $w; $this->h = $h; }
      function area() { return $this->w * $this->h; }
    }
    function main() {
      $shapes = [];
      for ($i = 0; $i < 10; $i++) {
        if ($i % 2 == 0) { $shapes[] = new Square($i); }
        else { $shapes[] = new Rect($i, $i + 1); }
      }
      $t = 0;
      foreach ($shapes as $sh) { $t += $sh->area(); }
      echo $t;
    } |});
  ("arrays cow heavy", {|
    function main() {
      $base = [1, 2, 3, 4, 5];
      $t = 0;
      for ($i = 0; $i < 15; $i++) {
        $copy = $base;
        $copy[$i % 5] = $i * 100;
        $t += $copy[$i % 5] + $base[$i % 5];
      }
      echo $t, "/", implode(",", $base);
    } |});
  ("keyed arrays", {|
    function main() {
      $m = [];
      for ($i = 0; $i < 12; $i++) { $m["k" . $i] = $i * $i; }
      $t = 0;
      foreach ($m as $k => $v) { $t += $v + strlen($k); }
      echo $t, "/", count($m);
    } |});
  ("destructors under jit", {|
    class Tracker {
      public $id = 0;
      function __construct($id) { $this->id = $id; }
      function __destruct() { echo "~", $this->id; }
    }
    function work($i) {
      $t = new Tracker($i);
      return $i * 2;
    }
    function main() {
      $s = 0;
      for ($i = 0; $i < 5; $i++) { $s += work($i); }
      echo "=", $s;
    } |});
  ("exceptions through jit frames", {|
    function risky($n) {
      if ($n % 7 == 3) { throw new RuntimeException("boom" . $n); }
      return $n;
    }
    function main() {
      $t = 0;
      for ($i = 0; $i < 20; $i++) {
        try { $t += risky($i); }
        catch (RuntimeException $e) { $t += 1000; }
      }
      echo $t;
    } |});
  ("mixed types guard pressure", {|
    function process($v) {
      if (is_int($v)) { return $v * 2; }
      if (is_string($v)) { return strlen($v); }
      if (is_float($v)) { return (int)$v; }
      return 0;
    }
    function main() {
      $vals = [1, "hello", 2.5, 7, "x", 3.25, 10];
      $t = 0;
      for ($round = 0; $round < 5; $round++) {
        foreach ($vals as $v) { $t += process($v); }
      }
      echo $t;
    } |});
  ("nested data", {|
    function main() {
      $matrix = [];
      for ($i = 0; $i < 5; $i++) {
        $row = [];
        for ($j = 0; $j < 5; $j++) { $row[] = $i * $j; }
        $matrix[] = $row;
      }
      $t = 0;
      foreach ($matrix as $row) { $t += array_sum($row); }
      $matrix[2][2] = 999;
      echo $t, "/", $matrix[2][2], "/", $matrix[2][1];
    } |});
  ("switch and logic", {|
    function grade($n) {
      switch (intdiv($n, 10)) {
        case 10:
        case 9: return "A";
        case 8: return "B";
        case 7: return "C";
        default: return "F";
      }
    }
    function main() {
      echo grade(95), grade(87), grade(73), grade(42), grade(100);
    } |});
  ("builtins mix", {|
    function main() {
      $words = explode(" ", "the quick brown fox jumps");
      $t = "";
      foreach ($words as $w) { $t .= strtoupper(substr($w, 0, 1)); }
      echo $t, "/", count($words), "/", implode("-", array_reverse($words));
    } |});
  (* double == and === are IEEE in every tier: NaN equals nothing *)
  ("nan equality", {|
    function main() {
      $inf = 1e300 * 1e300;
      $nan = $inf - $inf;
      $eq = 0; $same = 0; $ne = 0;
      for ($i = 0; $i < 50; $i++) {
        if ($nan == $nan) { $eq++; }
        if ($nan === $nan) { $same++; }
        if ($nan != $nan) { $ne++; }
      }
      echo $eq, " ", $same, " ", $ne;
    } |});
  (* a Str-typed call joins the Dbl-typed region head through an arc into
     another block of the same chain; the head must not elide its guards *)
  ("mixed-type compare chain", {|
    function g($x, $y) {
      $s = "";
      if ($x < $y) { $s .= "lt"; }
      if ($x <= $y) { $s .= "le"; }
      if ($x == $y) { $s .= "eq"; }
      if ($x === $y) { $s .= "same"; }
      if ($x > $y) { $s .= "gt"; }
      return $s . ";";
    }
    function main() {
      $out = "";
      for ($i = 0; $i < 30; $i++) {
        $out = g(5.0, 1.0) . g(1.0, 5.0) . g("a", "b");
      }
      echo $out;
    } |});
  (* null-- stays null: hhbbc must not assert Int on the local *)
  ("null decrement", {|
    function f($k) {
      $x = null; $x--; $s = 0;
      if ($x === null) { $s = 1; }
      if (is_null($x)) { $s = $s + 10; }
      return $s;
    }
    function main() {
      $t = 0;
      for ($i = 0; $i < 200; $i++) { $t = $t + f($i); }
      echo $t, "\n";
    } |});
  (* hhbbc types $x Int|Dbl, so lowering negates through the generic
     helper, which must keep the sign of -0.0 *)
  ("generic negation of zero", {|
    function f($c) { if ($c) { $x = 0.0; } else { $x = 1; } return -$x; }
    function main() {
      $s = "";
      for ($i = 0; $i < 100; $i++) { $s = $s . f($i % 2 == 0) . ","; }
      echo substr($s, 0, 40);
    } |});
  (* ++/-- on a property: through $this lowering cannot resolve the slot
     and hands the instruction, base and all, to the interpreter; a null
     property's result stays null *)
  ("property increment and decrement", {|
    class C {
      public $p = null;
      public $q = 5;
      function f() {
        $r = $this->p--; $this->q++;
        if ($r === null) { return 1; }
        return 0;
      }
    }
    function main() {
      $s = 0;
      for ($i = 0; $i < 100; $i++) {
        $c = new C();
        $s = $s + $c->f();
        $r = $c->p--;
        if ($r === null) { $s = $s + 10; }
        $r = --$c->p;
        if ($r === null) { $s = $s + 100; }
        $r = $c->p++;
        if ($r === null) { $s = $s + 1000; }
        $s = $s + $c->q;
      }
      echo $s;
    } |});
  ("object ids do not depend on the mode", {|
    class P { public $v = 0; }
    function oid($o) {
      $s = var_dump_str($o);
      return intval(substr($s, 7, strpos($s, "(") - 7));
    }
    function main() {
      $a = new P();
      $s = "";
      for ($n = 0; $n < 50; $n++) { $s = "alpha" . $n; }
      $b = new P();
      echo oid($b) - oid($a), ":", $s;
    } |});
]

(* Object construction: every object copies its class's template and
   materializes its own array defaults (DESIGN.md §4.2). *)
let construction_programs = [
  (* a redeclared default takes the name's last slot; the parent's
     array default is materialized and released before the child's *)
  ("construct: subclass redeclares an array default", {|
    class Base {
      public $tags = ["base"];
      public $mode = [1, 2];
      public $n = 1;
      function describe() {
        return count($this->tags) . ":" . $this->tags[0] . ":" . $this->n;
      }
    }
    class Child extends Base {
      public $tags = ["child", "extra"];
      public $mode = "flat";
      public $n = 2;
    }
    function main() {
      $s = "";
      for ($i = 0; $i < 12; $i++) {
        $b = new Base();
        $c = new Child();
        $s = $s . $b->describe() . "/" . $c->describe() . "/" . $c->mode
             . "/" . count($b->mode) . ";";
      }
      echo $s;
    } |});
  ("construct: arguments to a class without a constructor", {|
    class Plain { public $v = 3; public $w = "w"; }
    function main() {
      $t = 0;
      for ($i = 0; $i < 12; $i++) {
        $o = new Plain("a" . $i, [$i, $i + 1], new Plain());
        $t = $t + $o->v;
      }
      echo $t, $o->w;
    } |});
  ("construct: a constructor that throws", {|
    class Boom {
      public $data = [1, 2, 3];
      public $x = 0;
      function __construct($x) {
        $this->x = $x;
        if ($x % 3 == 2) { throw new Exception("boom " . $x); }
      }
    }
    function main() {
      $s = "";
      for ($i = 0; $i < 12; $i++) {
        try {
          $o = new Boom($i);
          $s = $s . "ok" . $o->x . ",";
        } catch (Exception $e) {
          $s = $s . $e->getMessage() . ",";
        }
      }
      echo $s;
    } |});
  ("construct: __destruct", {|
    class Res {
      public $name = "";
      public $log = ["open"];
      function __construct($n) { $this->name = $n; }
      function __destruct() { echo "~", $this->name, count($this->log), ";"; }
    }
    function make($i) { $r = new Res("r" . $i); return $i; }
    function main() {
      $t = 0;
      for ($i = 0; $i < 6; $i++) { $t = $t + make($i); }
      $a = new Res("a");
      $a = null;
      echo "=", $t;
    } |});
  ("construct: default arrays stay independent", {|
    class Bag {
      public $items = [0];
      function add($x) {
        $a = $this->items;
        $a[] = $x;
        $this->items = $a;
        return count($this->items);
      }
    }
    function main() {
      $s = "";
      for ($i = 0; $i < 10; $i++) {
        $p = new Bag();
        $q = new Bag();
        $p->add($i);
        $p->add($i + 1);
        $s = $s . count($p->items) . count($q->items) . $p->items[2] . ",";
      }
      echo $s;
    } |});
]

let tests =
  List.map (fun (n, s) -> differential n s) (programs @ construction_programs)

(* --- targeted engine behaviour tests --- *)

let t name f = Alcotest.test_case name `Quick f

(* What [f ()] costs on [eng]'s machine: simulated cycles, retired
   instructions, and i-cache and I-TLB accesses and misses. *)
let exec_traffic (eng : Core.Engine.t) (f : unit -> unit)
  : (string * int) list =
  let m = eng.Core.Engine.machine in
  let ic = m.Core.Exec.icache and tlb = m.Core.Exec.itlb in
  let open Simcpu in
  let read () =
    [ ("cycles", Runtime.Ledger.read ());
      ("instructions", m.Core.Exec.instrs_executed);
      ("i-cache accesses", ic.Icache.accesses);
      ("i-cache misses", ic.Icache.misses);
      ("I-TLB accesses", tlb.Itlb.accesses);
      ("I-TLB misses", tlb.Itlb.misses) ]
  in
  let before = read () in
  f ();
  List.map2 (fun (k, a) (_, b) -> (k, b - a)) before (read ())

let check_traffic (what : string) (cycles, instrs, ia, im, ta, tm)
    (got : (string * int) list) =
  Alcotest.(check (list (pair string int))) what
    [ ("cycles", cycles); ("instructions", instrs);
      ("i-cache accesses", ia); ("i-cache misses", im);
      ("I-TLB accesses", ta); ("I-TLB misses", tm) ]
    got

(* Heap counts of one warm call of [src]'s main under [mode]: allocations,
   frees, IncRefs, DecRefs. *)
let heap_counts (mode : Core.Jit_options.mode) (src : string) : int list =
  let u = Vm.Loader.load src in
  let opts = Core.Jit_options.default () in
  opts.mode <- mode;
  ignore (Core.Engine.install ~opts u);
  let call () =
    let r, _ = Vm.Output.capture (fun () -> Vm.Interp.call_by_name u "main" []) in
    Runtime.Heap.decref r
  in
  let a = Runtime.Heap.stats () in
  let read () = [ a.allocated; a.freed; a.incref_ops; a.decref_ops ] in
  call ();
  let before = read () in
  call ();
  List.map2 (fun x y -> y - x) before (read ())

let engine_tests = [
  t "region mode produces optimized translations" (fun () ->
      let src = {|
        function hot($n) { $s = 0; for ($i = 0; $i < $n; $i++) { $s += $i; } return $s; }
        function main() { $t = 0; for ($j = 0; $j < 10; $j++) { $t += hot(20); } echo $t; }
      |} in
      let u = Vm.Loader.load src in
      let opts = Core.Jit_options.default () in
      opts.mode <- Core.Jit_options.Region;
      let eng = Core.Engine.install ~opts u in
      let r, _ = Vm.Output.capture (fun () -> Vm.Interp.call_by_name u "main" []) in
      Runtime.Heap.decref r;
      Alcotest.(check bool) "profiling translations exist" true (eng.n_profiling > 0);
      let n = Core.Engine.retranslate_all eng in
      Alcotest.(check bool) "optimized translations produced" true (n > 0);
      let r, _ = Vm.Output.capture (fun () -> Vm.Interp.call_by_name u "main" []) in
      Runtime.Heap.decref r;
      Alcotest.(check (list string)) "no leaks" [] (Runtime.Heap.live_allocations ()));
  t "optimized mode is faster than interpreter" (fun () ->
      let src = {|
        function main() {
          $s = 0;
          for ($i = 0; $i < 400; $i++) { $s += $i * 2 + 1; }
          echo $s;
        } |} in
      let measure mode retrans =
        let u = Vm.Loader.load src in
        ignore (Hhbbc.Assert_insert.run u);
  ignore (Hhbbc.Bc_opt.run u);
        let opts = Core.Jit_options.default () in
        opts.mode <- mode;
        let eng = Core.Engine.install ~opts u in
        (* warm up *)
        let r, _ = Vm.Output.capture (fun () -> Vm.Interp.call_by_name u "main" []) in
        Runtime.Heap.decref r;
        if retrans then ignore (Core.Engine.retranslate_all eng);
        let c0 = Runtime.Ledger.read () in
        let r, _ = Vm.Output.capture (fun () -> Vm.Interp.call_by_name u "main" []) in
        Runtime.Heap.decref r;
        Runtime.Ledger.read () - c0
      in
      let interp_cost = measure Core.Jit_options.Interp false in
      let region_cost = measure Core.Jit_options.Region true in
      Alcotest.(check bool)
        (Printf.sprintf "region (%d) beats interp (%d)" region_cost interp_cost)
        true (region_cost * 2 < interp_cost));
  t "retranslate-all invalidates dispatch caches" (fun () ->
      (* stale-translation reuse through the monomorphic entry caches or
         the smashed translation links must be impossible after the
         translation table is rebuilt *)
      let src = {|
        class Counter {
          public $n = 0;
          function bump($d) { $this->n = $this->n + $d; return $this->n; }
        }
        function hot($n) { $s = 0; for ($i = 0; $i < $n; $i++) { $s += $i; } return $s; }
        function main() {
          $c = new Counter();
          $t = 0;
          for ($j = 0; $j < 12; $j++) { $t += hot(25) + $c->bump($j); }
          echo $t;
        } |} in
      let u = Vm.Loader.load src in
      ignore (Hhbbc.Assert_insert.run u);
      ignore (Hhbbc.Bc_opt.run u);
      let opts = Core.Jit_options.default () in
      opts.mode <- Core.Jit_options.Region;
      let eng = Core.Engine.install ~opts u in
      let call () =
        let r, out = Vm.Output.capture (fun () -> Vm.Interp.call_by_name u "main" []) in
        Runtime.Heap.decref r;
        out
      in
      let out1 = call () in
      let _ = call () in
      (* collect every translation reachable from the dispatch tables
         and the main domain's monomorphic caches *)
      let collect () =
        let ids = ref [] and monos = ref 0 in
        Array.iter
          (fun row ->
             Array.iter
               (function
                 | Some (sl : Core.Engine.slot) ->
                   for i = 0 to sl.sl_len - 1 do
                     ids := sl.sl_chain.(i).Core.Translation.tr_id :: !ids
                   done
                 | None -> ())
               row)
          eng.Core.Engine.trans;
        Array.iter
          (Array.iter (function
             | Some ((tr : Core.Translation.t), _) ->
               incr monos;
               ids := tr.tr_id :: !ids
             | None -> ()))
          (Core.Engine.ctx eng).Core.Engine.dx_mono;
        (List.sort_uniq compare !ids, !monos)
      in
      let old_ids, old_monos = collect () in
      Alcotest.(check bool) "warm translations exist" true (old_ids <> []);
      Alcotest.(check bool) "monomorphic caches are warm" true (old_monos > 0);
      (* keep one pre-retranslate translation to inspect its links later *)
      let old_tr =
        let found = ref None in
        Array.iter
          (fun row ->
             Array.iter
               (function
                 | Some (sl : Core.Engine.slot) ->
                   if !found = None && sl.sl_len > 0 then
                     found := Some sl.sl_chain.(0)
                 | None -> ())
               row)
          eng.Core.Engine.trans;
        Option.get !found
      in
      let old_gen = eng.Core.Engine.generation in
      ignore (Core.Engine.retranslate_all eng);
      Alcotest.(check bool) "generation bumped" true
        (eng.Core.Engine.generation > old_gen);
      (* immediately after the reset every cache is empty... *)
      let fresh_ids, fresh_monos = collect () in
      Alcotest.(check int) "monomorphic caches dropped" 0 fresh_monos;
      (* ...and nothing from the old table survived into the new one *)
      List.iter
        (fun id ->
           Alcotest.(check bool)
             (Printf.sprintf "translation %d is not stale" id)
             false (List.mem id old_ids))
        fresh_ids;
      (* links smashed before the reset are dead by generation mismatch *)
      Array.iter
        (fun (lk : Core.Translation.link) ->
           if lk.lk_target <> None then
             Alcotest.(check bool) "stale link is unsmashed" true
               (lk.lk_gen < eng.Core.Engine.generation))
        old_tr.Core.Translation.tr_links;
      let out2 = call () in
      Alcotest.(check string) "same output after retranslate-all" out1 out2;
      (* steady state repopulates the caches with fresh translations only *)
      let _ = call () in
      let new_ids, _ = collect () in
      List.iter
        (fun id ->
           Alcotest.(check bool)
             (Printf.sprintf "steady-state translation %d is not stale" id)
             false (List.mem id old_ids))
        new_ids;
      Alcotest.(check (list string)) "no leaks" [] (Runtime.Heap.live_allocations ()));
  t "output hash identical with dispatch caches disabled" (fun () ->
      (* the monomorphic / link / method-dispatch caches are wall-clock
         engineering only: the Region perflab must produce bit-identical
         output with them off *)
      let hash_with caches =
        let r =
          Server.Perflab.run Core.Jit_options.Region
            ~tweak:(fun o -> o.Core.Jit_options.dispatch_caches <- caches)
        in
        r.Server.Perflab.r_output_hash
      in
      let on = hash_with true in
      let off = hash_with false in
      Alcotest.(check int) "hash(caches on) = hash(caches off)" on off);
  t "destructor from a JIT decref: cycles and fetch traffic" (fun () ->
      (* Dropping the last reference in optimized code runs __destruct, a
         nested run on the same machine between two of the caller's
         fetches.  Recorded from the executor that decoded every
         instruction and fetched at each one; the outputs alone would not
         show a caller that skips a fetch after the nested run. *)
      let src = {|
        function mix($a, $b) {
          $x = $a * 7 + $b; $y = $x % 13 + $a * $b; $z = $y * 3 - $x;
          if ($z > 100) { $z = $z % 97; } else { $z = $z + $a; }
          return $x + $y + $z;
        }
        function fold($a) {
          $t = 0;
          for ($k = 0; $k < 3; $k++) { $t = $t + mix($a, $k) % 11; }
          return $t;
        }
        class Node {
          public $v = 0;
          public $w = 0;
          function __construct($v) { $this->v = $v; $this->w = fold($v); }
          function __destruct() {
            $this->v = mix($this->v, $this->w) + fold($this->w);
          }
        }
        function main() {
          $s = 0;
          for ($i = 0; $i < 40; $i++) {
            $n = new Node($i);
            $s += $n->v + $n->w;
            $n = null;
            $s += 2;
          }
          echo $s;
        } |} in
      let u = Vm.Loader.load src in
      let opts = Core.Jit_options.default () in
      opts.mode <- Core.Jit_options.Region;
      (* small pages, so the I-TLB sees the code move between functions *)
      opts.huge_pages <- false;
      let eng = Core.Engine.install ~opts u in
      let call () =
        let r, out =
          Vm.Output.capture (fun () -> Vm.Interp.call_by_name u "main" [])
        in
        Runtime.Heap.decref r;
        Alcotest.(check string) "output" "1421" out
      in
      call ();
      Alcotest.(check bool) "optimized translations" true
        (Core.Engine.retranslate_all eng > 0);
      call ();
      check_traffic "steady call" (83_838, 24_447, 2_890, 0, 880, 0)
        (exec_traffic eng call);
      Alcotest.(check (list string)) "no leaks" []
        (Runtime.Heap.live_allocations ()));
  t "fetch after a page remap and on a cut line" (fun () ->
      (* main's optimized code is one translation on one i-cache line, so
         each fetch but a run's first is on the i-cache's last line.  The
         I-TLB must still see the first fetch after [Itlb.set_huge] remaps
         pages, and each fetch that crosses a huge-page bound cutting that
         line.  Recorded from the executor that fetched at every
         instruction. *)
      let u = Vm.Loader.load {| function main() { echo 7; } |} in
      let opts = Core.Jit_options.default () in
      opts.mode <- Core.Jit_options.Region;
      let eng = Core.Engine.install ~opts u in
      let call () =
        let r, out =
          Vm.Output.capture (fun () -> Vm.Interp.call_by_name u "main" [])
        in
        Runtime.Heap.decref r;
        Alcotest.(check string) "output" "7" out
      in
      for _ = 1 to 3 do call () done;
      Alcotest.(check int) "optimized translations" 1
        (Core.Engine.retranslate_all eng);
      call ();
      let calls f () = for _ = 1 to 10 do f (); call () done in
      let tlb = eng.Core.Engine.machine.Core.Exec.itlb in
      let lo, hi = Simcpu.Codecache.main_range eng.Core.Engine.cache in
      check_traffic "steady" (370, 60, 0, 0, 0, 0)
        (exec_traffic eng (calls ignore));
      check_traffic "pages remapped before each call" (410, 60, 0, 0, 10, 1)
        (exec_traffic eng
           (calls (fun () -> Simcpu.Itlb.set_huge tlb ~enabled:false ~lo ~hi)));
      Simcpu.Itlb.set_huge tlb ~enabled:true ~lo ~hi:((lo land lnot 63) + 24);
      check_traffic "huge-page bound inside the line" (370, 60, 0, 0, 20, 0)
        (exec_traffic eng (calls ignore)));
  (* Each Base object materializes two array defaults; each Child
     materializes Base's two and releases them as its own [tags] array
     and [mode] string replace them, as the by-name construction did.
     Recorded before construction templates. *)
  t "construction heap counts with redeclared defaults" (fun () ->
      let src =
        List.assoc "construct: subclass redeclares an array default"
          construction_programs
      in
      List.iter
        (fun (what, mode, want) ->
           Alcotest.(check (list int)) what want (heap_counts mode src))
        [ ("interp", Core.Jit_options.Interp, [ 276; 276; 228; 504 ]);
          ("region", Core.Jit_options.Region, [ 336; 336; 228; 564 ]) ]);
  t "code budget falls back to interpreter" (fun () ->
      let src = {|
        function main() { $s = 0; for ($i = 0; $i < 30; $i++) { $s += $i; } echo $s; }
      |} in
      let u = Vm.Loader.load src in
      let opts = Core.Jit_options.default () in
      opts.mode <- Core.Jit_options.Tracelet;
      opts.code_budget <- Some 1;       (* nothing fits *)
      ignore (Core.Engine.install ~opts u);
      let r, out = Vm.Output.capture (fun () -> Vm.Interp.call_by_name u "main" []) in
      Runtime.Heap.decref r;
      Alcotest.(check string) "still correct" "435" out;
      Alcotest.(check (list string)) "no leaks" [] (Runtime.Heap.live_allocations ()));
]

let suite = ("jit", tests @ engine_tests)
