(** Pinned-value suite for the closure-threaded interpreter dispatch
    loop.

    The observables below — program output, simulated cycle ledger,
    retired-instruction count, per-opcode vmstats counters, the perflab
    interpreter hash and weighted cycles — are constants recorded from the
    match-on-variant loop the threaded one replaced, with which it was
    bit-identical.  Any drift in the loop's semantics or cost accounting
    fails here.  Serving parity compares the threaded loop against itself
    across worker counts, and flat-code invalidation (in-place bytecode
    rewrites, unit reloads) must never leak stale handlers. *)

(* ---- Synthetic programs exercising distinct interpreter surfaces ---- *)

(* deep recursion + mutual recursion: call/return, arith, compare *)
let prog_recursion = {|
  function fib($n) { if ($n < 2) { return $n; } return fib($n - 1) + fib($n - 2); }
  function even($n) { if ($n == 0) { return true; } return odd($n - 1); }
  function odd($n) { if ($n == 0) { return false; } return even($n - 1); }
  function main() {
    echo fib(15), "|";
    echo even(10) ? "E" : "o";
    echo odd(7) ? "O" : "e";
  }
|}

(* string/array churn: appends, foreach (keyed and plain), dict writes,
   concat, builtins — the refcount-heavy shapes *)
let prog_strings_arrays = {|
  function main() {
    $a = [];
    for ($i = 0; $i < 50; $i++) { $a[] = $i * $i; }
    $s = 0;
    foreach ($a as $k => $v) { $s = $s + $v - $k; }
    $words = ["alpha", "beta", "gamma", "delta"];
    $t = "";
    foreach ($words as $w) { $t = $t . substr($w, 0, 2) . "-"; }
    $m = [];
    $m["x"] = 1;
    $m["y"] = 2;
    $m["x"] = $m["x"] + 10;
    echo $s, "|", $t, "|", strlen($t), "|", count($a), "|", $m["x"] + $m["y"];
  }
|}

(* exceptions across frames, catch-class selection, unwinding through
   loops — the non-local control flow paths *)
let prog_exceptions = {|
  function risky($n) {
    if ($n % 3 == 0) { throw new RuntimeException("m" . $n); }
    return $n * 2;
  }
  function main() {
    $total = 0;
    $caught = 0;
    for ($i = 1; $i <= 12; $i++) {
      try { $total = $total + risky($i); }
      catch (RuntimeException $e) { $caught = $caught + 1; echo $e->getMessage(), ";"; }
    }
    echo "|", $total, "|", $caught;
    try {
      try { throw new InvalidArgumentException("inner"); }
      catch (RuntimeException $e) { echo "wrong"; }
    } catch (Exception $e) { echo "|outer:", $e->getMessage(); }
  }
|}

let programs =
  [ ("recursion", prog_recursion);
    ("strings-arrays", prog_strings_arrays);
    ("exceptions", prog_exceptions) ]

(* Pinned (output, ledger cycles, retired instrs) per program. *)
let pinned_runs =
  [ ("recursion", ("610|EO", 983596, 19910));
    ("strings-arrays", ("39200|al-be-ga-de-|12|50|13", 56069, 1176));
    ("exceptions", ("m3;m6;m9;m12;|96|4|outer:inner", 20669, 417)) ]

(* Pinned nonzero [interp.op.*] counts per program; every other opcode
   must stay at zero. *)
let pinned_ops =
  [ ("recursion",
     [ ("Int", 3984); ("String", 3); ("True", 2); ("Null", 1);
       ("CGetL", 4968); ("Binop", 4967); ("Jmp", 2); ("JmpZ", 1994);
       ("RetC", 1993); ("FCall", 1992); ("Print", 4) ]);
    ("strings-arrays",
     [ ("Int", 64); ("String", 19); ("Null", 1); ("NewArray", 3);
       ("AddNewElemC", 4); ("CGetL", 318); ("SetL", 60); ("PopC", 163);
       ("IncDecL", 50); ("Binop", 211); ("Jmp", 50); ("JmpZ", 51);
       ("RetC", 1); ("FCallBuiltin", 6); ("QueryM_Elem", 3);
       ("SetM_ElemL", 3); ("SetM_NewElemL", 50); ("Print", 9);
       ("IterInit", 2); ("IterKV", 54); ("IterNext", 54) ]);
    ("exceptions",
     [ ("Int", 52); ("String", 12); ("Null", 6); ("CGetL", 82);
       ("SetL", 15); ("PopC", 37); ("IncDecL", 12); ("Binop", 61);
       ("Jmp", 25); ("JmpZ", 25); ("RetC", 19); ("Throw", 5); ("FCall", 12);
       ("FCallM", 5); ("NewObjD", 5); ("This", 15); ("QueryM_Prop", 5);
       ("SetM_Prop", 10); ("Print", 14) ]) ]

(* Pinned perflab pure-interpreter output hash and weighted cycles. *)
let pinned_perflab_hash = 203261512
let pinned_perflab_weighted = 88462.370666666669

(* Run a program start to finish and return (output, ledger cycles,
   retired instrs); assert a clean heap. *)
let run_measured (src : string) : string * int * int =
  let u = Vm.Loader.load src in
  let c0 = Runtime.Ledger.read () in
  let i0 = Vm.Interp.instr_count () in
  let r, out =
    Vm.Output.capture (fun () -> Vm.Interp.call_by_name u "main" [])
  in
  Runtime.Heap.decref r;
  let cycles = Runtime.Ledger.read () - c0 in
  let instrs = Vm.Interp.instr_count () - i0 in
  Alcotest.(check (list string))
    "no leaked heap objects" [] (Runtime.Heap.live_allocations ());
  (out, cycles, instrs)

let test_program_parity () =
  List.iter
    (fun (name, src) ->
       let out, cyc, ins = List.assoc name pinned_runs in
       let out', cyc', ins' = run_measured src in
       Alcotest.(check string) (name ^ ": output") out out';
       Alcotest.(check int) (name ^ ": ledger cycles") cyc cyc';
       Alcotest.(check int) (name ^ ": retired instrs") ins ins')
    programs

(* Per-opcode vmstats counters: the loop bumps this domain's counter
   array at the per-pc index the flat form carries. *)
let test_op_counter_parity () =
  let op_counts (src : string) : (string * int) list =
    let was = !Obs.Vmstats.enabled in
    Obs.Vmstats.enabled := true;
    Fun.protect ~finally:(fun () -> Obs.Vmstats.enabled := was)
      (fun () ->
         let u = Vm.Loader.load src in
         let count n =
           Obs.Vmstats.count (Obs.Vmstats.counter ("interp.op." ^ n))
         in
         let before = Array.map count Hhbc.Instr.opcode_names in
         let r, _ =
           Vm.Output.capture (fun () -> Vm.Interp.call_by_name u "main" [])
         in
         Runtime.Heap.decref r;
         Array.to_list Hhbc.Instr.opcode_names
         |> List.mapi (fun i n -> (n, count n - before.(i)))
         |> List.filter (fun (_, c) -> c <> 0))
  in
  List.iter
    (fun (name, src) ->
       Alcotest.(check (list (pair string int)))
         (name ^ ": per-opcode counters") (List.assoc name pinned_ops)
         (op_counts src))
    programs

(* Perflab in pure-interpreter mode: the whole request mix runs through
   the loop; hash and weighted cycles must match the pins to the bit. *)
let test_perflab_parity () =
  let r = Server.Perflab.run Core.Jit_options.Interp in
  Alcotest.(check int) "perflab interp: output hash"
    pinned_perflab_hash r.Server.Perflab.r_output_hash;
  Alcotest.(check (float 0.0)) "perflab interp: weighted cycles"
    pinned_perflab_weighted r.Server.Perflab.r_weighted

(* ---- Serving parity: (worker count) x (jit mode) ---- *)

let check_serving_equal what (r1 : Server.Serving.result)
    (r2 : Server.Serving.result) ~cycles =
  Alcotest.(check (array string)) (what ^ ": per-request outputs")
    r1.Server.Serving.sv_outputs r2.Server.Serving.sv_outputs;
  Alcotest.(check int) (what ^ ": output hash")
    r1.Server.Serving.sv_output_hash r2.Server.Serving.sv_output_hash;
  (* per-request cycle attribution is schedule-dependent under a JIT with
     lazy translation, so only compare it where the caller knows the
     translation state is identical *)
  if cycles then
    Alcotest.(check (array int)) (what ^ ": per-request cycles")
      r1.Server.Serving.sv_cycles r2.Server.Serving.sv_cycles

let test_serving_parity_region () =
  let run = Test_parallel.serving_run in
  check_serving_equal "region serving, 1 vs 4 workers" (run 1) (run 4)
    ~cycles:false;
  (* full retranslate-all firing mid-burst: flat code for lazily
     rebuilt translations must stay coherent *)
  let n = Array.length (Server.Serving.mix ~rounds:6 ()) in
  check_serving_equal "retranslate mid-burst, 1 vs 4 workers"
    (run ~trigger_at:(n / 3) 1) (run ~trigger_at:(n / 3) 4) ~cycles:false

let test_serving_parity_interp () =
  (* pure interpreter: no lazy translation, so per-request cycles are
     schedule-independent and must match at any worker count *)
  let run = Test_parallel.serving_run ~mode:Core.Jit_options.Interp in
  check_serving_equal "interp serving, 1 vs 4 workers" (run 1) (run 4)
    ~cycles:true

(* ---- Flat-code invalidation ---- *)

(* In-place bytecode rewrite: run once (flat code cached), let hhbbc
   rewrite function bodies in place (which calls [invalidate_flat]), run
   again — the second run must re-flatten and agree with a fresh load
   that had the rewrite applied before any execution. *)
let run_main (u : Hhbc.Hunit.t) : string =
  let r, out =
    Vm.Output.capture (fun () -> Vm.Interp.call_by_name u "main" [])
  in
  Runtime.Heap.decref r;
  out

let test_invalidation_bytecode_rewrite () =
  let src = prog_strings_arrays in
  let u = Vm.Loader.load src in
  let out_before = run_main u in
  ignore (Hhbbc.Assert_insert.run u);
  ignore (Hhbbc.Bc_opt.run u);
  let out_after = run_main u in
  Alcotest.(check string) "output stable across in-place rewrite"
    out_before out_after;
  (* fresh reference: rewrite first, then run *)
  let u2 = Vm.Loader.load src in
  ignore (Hhbbc.Assert_insert.run u2);
  ignore (Hhbbc.Bc_opt.run u2);
  Alcotest.(check string) "matches fresh post-rewrite load"
    out_before (run_main u2)

(* Unit reload: loading a new unit bumps the global flat epoch; stale
   flat code (interned constants, resolved call targets from the old
   unit) must never leak into the new unit's execution. *)
let test_invalidation_unit_reload () =
  let go src = run_main (Vm.Loader.load src) in
  let a1 = go prog_recursion in
  let b1 = go prog_exceptions in
  let a2 = go prog_recursion in
  let b2 = go prog_exceptions in
  Alcotest.(check string) "reload run 1 = run 2 (recursion)" a1 a2;
  Alcotest.(check string) "reload run 1 = run 2 (exceptions)" b1 b2

let suite =
  ( "threaded-dispatch",
    [
      Alcotest.test_case "program parity (out/cycles/instrs)" `Quick
        test_program_parity;
      Alcotest.test_case "per-opcode counter parity" `Quick
        test_op_counter_parity;
      Alcotest.test_case "perflab interp parity" `Slow test_perflab_parity;
      Alcotest.test_case "serving parity: region x workers" `Slow
        test_serving_parity_region;
      Alcotest.test_case "serving parity: interp x workers" `Slow
        test_serving_parity_interp;
      Alcotest.test_case "invalidation: in-place bytecode rewrite" `Quick
        test_invalidation_bytecode_rewrite;
      Alcotest.test_case "invalidation: unit reload" `Quick
        test_invalidation_unit_reload;
    ] )
