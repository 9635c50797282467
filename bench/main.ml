(** The benchmark harness: regenerates every table and figure of the paper's
    evaluation (§6) on the simulated substrate.

    Usage: main.exe
      [fig8|fig9|fig10|fig11|table1|ablate|vmstats|serving|startup|
       tc_lifecycle|retranslate|micro|all]

    Every target that checks an invariant exits 1 when it fails, so each
    doubles as a CI gate.

    Absolute numbers are not expected to match the paper (the substrate is
    a deterministic simulator, not Facebook production hardware); the
    *shape* — who wins, by roughly what factor, where the knees are — is
    what each section compares.  EXPERIMENTS.md records paper-vs-measured
    for every row. *)

let line () = print_endline (String.make 72 '-')

let hdr title paper =
  line ();
  Printf.printf "%s\n" title;
  Printf.printf "paper: %s\n" paper;
  line ()

(* ------------------------------------------------------------------ *)
(* Figure 8: execution modes                                           *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  hdr "Figure 8: performance of execution modes (relative to JIT-Region)"
    "Interp 12.8%  JIT-Profile 39.8%  JIT-Tracelet 82.2%  JIT-Region 100%";
  let results =
    List.map (fun (n, m) -> (n, Server.Perflab.run m)) Server.Perflab.modes
  in
  (* differential sanity: all modes must produce identical output.  A
     divergence means the JIT changed program behaviour — fail loudly. *)
  let hashes = List.map (fun (_, r) -> r.Server.Perflab.r_output_hash) results in
  (match hashes with
   | h :: rest ->
     if List.exists (fun h' -> h' <> h) rest then begin
       prerr_endline "ERROR: output hash mismatch across execution modes";
       exit 1
     end
   | [] -> ());
  let region =
    (List.assoc "JIT-Region" results).Server.Perflab.r_weighted
  in
  Printf.printf "%-14s %16s %10s %14s\n"
    "mode" "cycles/request" "relative" "(99% CI +-)";
  List.iter
    (fun (n, r) ->
       Printf.printf "%-14s %16.0f %9.1f%% %14.1f\n"
         n r.Server.Perflab.r_weighted
         (100.0 *. region /. r.Server.Perflab.r_weighted)
         r.Server.Perflab.r_ci99)
    results;
  (* the in-text §6.1 claims *)
  let interp = (List.assoc "Interp" results).Server.Perflab.r_weighted in
  let prof = (List.assoc "JIT-Profile" results).Server.Perflab.r_weighted in
  let tracelet = (List.assoc "JIT-Tracelet" results).Server.Perflab.r_weighted in
  Printf.printf "\nprofiling code vs interpreter: %.1fx faster (paper: 3.1x)\n"
    (interp /. prof);
  Printf.printf "region JIT speedup over tracelet JIT: %.1f%% (paper: 21.7%%)\n"
    (100.0 *. (tracelet /. region -. 1.0))

(* ------------------------------------------------------------------ *)
(* Figure 9: startup behaviour                                         *)
(* ------------------------------------------------------------------ *)

let fig9 () =
  hdr "Figure 9: server behaviour during the initial minutes after restart"
    "code grows to ~491MB; RPS ~60% at 3min; crosses steady state after \
     optimized code is published; 8% of JITed-code time in live code";
  let tr = Server.Startup.simulate ~total_minutes:12.0 () in
  Printf.printf "%8s %12s %10s\n" "minute" "JITed code" "RPS (%)";
  List.iter
    (fun (s : Server.Startup.sample) ->
       Printf.printf "%8.1f %10d KB %9.1f%%\n"
         s.s_minute s.s_code_kb s.s_rps_pct)
    tr.t_samples;
  Printf.printf "\npoint A (profiling done, optimization starts): %.1f min\n"
    tr.t_point_a_min;
  Printf.printf "point B (optimized code produced):             %.1f min\n"
    tr.t_point_b_min;
  Printf.printf "point C (optimized code published):            %.1f min\n"
    tr.t_point_c_min;
  Printf.printf "final JITed code size: %d KB\n" tr.t_final_code_kb;
  Printf.printf "retranslate-all pause (wall clock): %.2f ms\n" tr.t_pause_ms;
  Printf.printf "steady-state time in live-mode code: %.1f%% (paper: 8%%)\n"
    tr.t_pct_live_steady

(* ------------------------------------------------------------------ *)
(* Figure 10: impact of individual optimizations                       *)
(* ------------------------------------------------------------------ *)

let fig10 () =
  hdr "Figure 10: slowdown from disabling each optimization (Region mode)"
    "inlining 7.3%  RCE 3.4%  guard-relax 1.4%  method-dispatch 7.2%  \
     PGO-layout 2.8%  all-PGO 9.0%  huge-pages 1.6%";
  let baseline = Server.Perflab.run Core.Jit_options.Region in
  let base = baseline.Server.Perflab.r_weighted in
  Printf.printf "%-14s %16s %10s\n" "disabled" "cycles/request" "slowdown";
  Printf.printf "%-14s %16.0f %10s\n" "(baseline)" base "-";
  List.iter
    (fun (name, tweak) ->
       let r = Server.Perflab.run Core.Jit_options.Region ~tweak in
       Printf.printf "%-14s %16.0f %9.1f%%\n"
         name r.Server.Perflab.r_weighted
         (100.0 *. (r.Server.Perflab.r_weighted /. base -. 1.0)))
    Server.Perflab.ablations

(* ------------------------------------------------------------------ *)
(* Figure 11: impact of JITed code size                                *)
(* ------------------------------------------------------------------ *)

let fig11 () =
  hdr "Figure 11: performance vs JITed-code budget (fraction of baseline)"
    "10% of code -> 61.4% perf; 40% -> 91.0%; 120% -> +0.8%";
  let points, base_bytes = Server.Sweep.run () in
  Printf.printf "baseline code size: %d B (budget-counted: Main+Cold+Live)\n"
    base_bytes;
  Printf.printf "%10s %12s %12s %10s\n" "fraction" "perf (%)" "code (B)"
    "refused";
  List.iter
    (fun (p : Server.Sweep.point) ->
       Printf.printf "%9.0f%% %11.1f%% %12d %10d\n"
         (100.0 *. p.p_fraction) p.p_perf_pct p.p_code_bytes p.p_rejected)
    points

(* ------------------------------------------------------------------ *)
(* Table 1: type constraints (+ guard-relaxation statistics)           *)
(* ------------------------------------------------------------------ *)

let table1 () =
  hdr "Table 1: type-constraint kinds observed on profiling guards"
    "six kinds, Generic (most relaxed) .. Specialized (most restrictive)";
  (* run a full profile so the TransCFG is populated *)
  Region.Relax.reset_stats ();
  let _r = Server.Perflab.run Core.Jit_options.Region in
  let counts = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _ (b : Region.Rdesc.block) ->
       List.iter
         (fun (g : Region.Rdesc.guard) ->
            let k = Region.Rdesc.constraint_name g.g_constraint in
            Hashtbl.replace counts k
              (1 + Option.value (Hashtbl.find_opt counts k) ~default:0))
         b.b_preconds)
    Region.Transcfg.blocks_by_id;
  Printf.printf "%-22s %8s\n" "constraint" "guards";
  List.iter
    (fun k ->
       Printf.printf "%-22s %8d\n" k
         (Option.value (Hashtbl.find_opt counts k) ~default:0))
    [ "Generic"; "Countness"; "BoxAndCountness"; "BoxAndCountnessInit";
      "Specific"; "Specialized" ];
  let s = Region.Relax.stats in
  Printf.printf "\nguard relaxation: %d widened to Uncounted, %d dropped \
                 (generic), %d dropped (Generic constraint), %d kept, \
                 %d sibling translations subsumed\n"
    (Atomic.get s.relaxed_to_uncounted) (Atomic.get s.relaxed_to_generic)
    (Atomic.get s.dropped_generic) (Atomic.get s.kept)
    (Atomic.get s.blocks_subsumed);
  Printf.printf "RCE: %d IncRef/DecRef pairs eliminated, %d DecRefs \
                 specialized to DecRefNZ\n"
    (Atomic.get Hhir_opt.Rce.stats.pairs_eliminated)
    (Atomic.get Hhir_opt.Rce.stats.decref_nz)

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: wall-clock cost of the compiler itself    *)
(* ------------------------------------------------------------------ *)

(* The reference kernel of the interpreter gate: fib(12) in OCaml, by a
   small expression tree compiled to closures over boxed values, one
   frame array per call — the same shape of work as the MiniPHP
   interpreter's (indirect calls, branches, allocation) and the same
   amount every run, on none of this project's code.  Host load that
   slows one slows the other. *)
type kval = KI of int

type kexp =
  | KArg
  | KConst of int
  | KLt of kexp * kexp
  | KAdd of kexp * kexp
  | KSub of kexp * kexp
  | KIf of kexp * kexp * kexp
  | KCall of kexp

let rec kcompile (self : (kval array -> kval) ref) (e : kexp)
  : kval array -> kval =
  let bin f a b =
    let a = kcompile self a and b = kcompile self b in
    fun fr -> let KI x = a fr and KI y = b fr in KI (f x y)
  in
  match e with
  | KArg -> fun fr -> fr.(0)
  | KConst n -> fun _ -> KI n
  | KLt (a, b) -> bin (fun x y -> if x < y then 1 else 0) a b
  | KAdd (a, b) -> bin ( + ) a b
  | KSub (a, b) -> bin ( - ) a b
  | KIf (c, t, f) ->
    let c = kcompile self c and t = kcompile self t and f = kcompile self f in
    fun fr -> let KI b = c fr in if b <> 0 then t fr else f fr
  | KCall a ->
    let a = kcompile self a in
    fun fr -> !self [| a fr |]

let kfib : kval array -> kval =
  let self = ref (fun _ -> KI 0) in
  self :=
    kcompile self
      (KIf (KLt (KArg, KConst 2), KArg,
            KAdd (KCall (KSub (KArg, KConst 1)),
                  KCall (KSub (KArg, KConst 2)))));
  !self

let kernel_fib12 () = ignore (Sys.opaque_identity (kfib [| KI 12 |]))

let min_of_batches ~(batches : int) ~(iters : int) (g : unit -> unit) : float =
  g ();   (* warm: flatten, caches *)
  let best = ref infinity in
  for _ = 1 to batches do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do g () done;
    let dt = (Unix.gettimeofday () -. t0) /. float_of_int iters in
    if dt < !best then best := dt
  done;
  !best *. 1e9

type fib_vs_kernel = {
  fk_fib_ns : float;      (* fastest sample *)
  fk_kernel_ns : float;   (* fastest sample *)
  fk_ratio : float;       (* fk_fib_ns / fk_kernel_ns *)
  fk_samples : int;       (* samples of each, interleaved *)
}

(* [fib] and the kernel timed alternately, one [fib] call against ten
   kernel calls at a time, so both see the same host load down to a
   tenth of a millisecond.  Each keeps its fastest sample — preemption
   and interrupts only ever add time — and the gate's estimate is the
   ratio of the two. *)
let fib12_vs_kernel (fib : unit -> unit) : fib_vs_kernel =
  let samples = 600 in
  let time iters g =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do g () done;
    (Unix.gettimeofday () -. t0) /. float_of_int iters *. 1e9
  in
  Gc.compact ();
  fib ();
  kernel_fib12 ();
  let best_f = ref infinity and best_k = ref infinity in
  for _ = 1 to samples do
    best_f := Float.min !best_f (time 1 fib);
    best_k := Float.min !best_k (time 10 kernel_fib12)
  done;
  { fk_fib_ns = !best_f; fk_kernel_ns = !best_k;
    fk_ratio = !best_f /. !best_k; fk_samples = samples }

(** Run the bechamel pipeline microbenchmarks; returns (name, ns/run)
    and the interpreter gate's measurement. *)
let micro_results () : (string * float) list * fib_vs_kernel =
  (* the interpreter micros record the min over timed batches, not an
     OLS mean: the standard noise filter for a deterministic workload.
     fib(12) gates CI as a ratio to the reference kernel, measured first,
     before the compiler micros have grown the heap. *)
  let interp_unit =
    Vm.Loader.load
      "function fib($n) { if ($n < 2) { return $n; } return fib($n-1) + fib($n-2); } \
       function strarr($n) { \
         $a = []; \
         for ($i = 0; $i < $n; $i++) { $a[] = $i * 3; } \
         $s = \"\"; $t = 0; \
         foreach ($a as $k => $v) { $t = $t + $v - $k; if ($v % 7 == 0) { $s = $s . $v . \",\"; } } \
         return strlen($s) + $t + count($a); \
       }"
  in
  let interp_call name arg () =
    let r = Vm.Interp.call_by_name interp_unit name [ Runtime.Value.VInt arg ] in
    Runtime.Heap.decref r
  in
  let fib12 = fib12_vs_kernel (interp_call "fib" 12) in
  let open Bechamel in
  let open Toolkit in
  let src = Workloads.Endpoints.source in
  let parse_test =
    Test.make ~name:"parse+emit workload unit"
      (Staged.stage (fun () -> ignore (Hhbc.Emit.compile src)))
  in
  let hhbbc_test =
    Test.make ~name:"hhbbc inference+asserts"
      (Staged.stage
         (let u = Hhbc.Emit.compile src in
          fun () ->
            Array.iter
              (fun f -> ignore (Hhbbc.Infer.analyze f))
              u.Hhbc.Hunit.functions))
  in
  let tests =
    Test.make_grouped ~name:"pipeline" [ parse_test; hhbbc_test ]
  in
  let benchmark () =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.3) () in
    let raw = Benchmark.all cfg instances tests in
    List.map (fun i -> Analyze.all ols i raw) instances
  in
  let results = benchmark () in
  let compiler_micros =
    List.concat_map
      (fun tbl ->
         Hashtbl.fold
           (fun name result acc ->
              match Bechamel.Analyze.OLS.estimates result with
              | Some [ est ] -> (name, est) :: acc
              | _ -> acc)
           tbl [])
      results
  in
  let interp_micros =
    [ (* the dispatch-loop acceptance micro: recursion-heavy, call-dominated *)
      ("pipeline/interp fib(12)", fib12.fk_fib_ns);
      ("reference kernel fib(12)", fib12.fk_kernel_ns);
      (* deeper recursion: long enough that per-batch noise washes out *)
      ("pipeline/interp fib(20)",
       min_of_batches ~batches:5 ~iters:6 (interp_call "fib" 20));
      (* refcount-heavy counterpart: array append/iterate + string
         building, stressing heap paths the fib micros never touch *)
      ("pipeline/interp strarr(200)",
       min_of_batches ~batches:7 ~iters:300 (interp_call "strarr" 200)) ]
  in
  (compiler_micros @ interp_micros |> List.sort compare, fib12)

(** Interpreter-regression cap on [fk_ratio], the interpreter's fib(12)
    over the reference kernel's.  On a shared 2-vCPU x86-64 VM the ratio
    read 12.8-14.4 over 30 runs, idle and beside one or two CPU-bound
    neighbours, while fib(12) alone read 106-162 us.  A dispatch loop
    slowed by six extra iterations per bytecode (fib(12) +16%) read
    16.2-16.4.  The cap sits above the spread and below 1.2x its low
    end, so a 20% slower interpreter trips it from any state seen. *)
let fib12_ratio_cap = 15.0

let micro () =
  hdr "Microbenchmarks: wall-clock time of the JIT pipeline (bechamel)"
    "(not in the paper; JIT-time engineering numbers)";
  let results, fib12 = micro_results () in
  List.iter
    (fun (name, est) -> Printf.printf "%-32s %12.0f ns/run\n" name est)
    results;
  Printf.printf "%-32s %12.2f (best of %d interleaved samples each, cap %.2f)\n"
    "interp fib(12) / kernel" fib12.fk_ratio fib12.fk_samples fib12_ratio_cap;
  if fib12.fk_ratio > fib12_ratio_cap then begin
    Printf.eprintf
      "ERROR: interp fib(12) is %.2fx the reference kernel, above the %.2fx \
       cap\n"
      fib12.fk_ratio fib12_ratio_cap;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Parallel retranslate-all: pause by --jit-workers count              *)
(* ------------------------------------------------------------------ *)

(** Retranslate-all pause vs worker count: same Region perflab, only the
    compile-phase parallelism varies.  Pause is the engine's wall-clock
    [retranslate.pause] timer (one retranslation per perflab run, and
    install resets the registry, so the read is exactly that run's pause);
    best-of-[reps] since only host noise varies.  The publish phase is
    deterministic, so output hash and code bytes must be identical for
    every worker count. *)
let measure_retranslate ~(reps : int) (workers : int)
  : float * float * Server.Perflab.result =
  let best = ref infinity and best_compile = ref infinity in
  let last = ref None in
  for _ = 1 to reps do
    let r =
      Server.Perflab.run Core.Jit_options.Region
        ~tweak:(fun o -> o.Core.Jit_options.jit_workers <- workers)
    in
    let pause = 1000. *. Obs.Vmstats.timer_seconds "retranslate.pause" in
    let compile = 1000. *. Obs.Vmstats.timer_seconds "retranslate.compile" in
    if pause < !best then best := pause;
    if compile < !best_compile then best_compile := compile;
    last := Some r
  done;
  (!best, !best_compile, Option.get !last)

let retranslate () =
  hdr "Parallel retranslate-all: pause by --jit-workers count"
    "(background JIT workers keep the serving stall to the serial publish, \
     §6.3)";
  let rows =
    List.map (fun w -> (w, measure_retranslate ~reps:3 w)) [ 1; 2; 4 ]
  in
  Printf.printf "%12s %12s %20s %12s %14s\n"
    "jit-workers" "pause (ms)" "compile burst (ms)" "code bytes" "output hash";
  List.iter
    (fun (w, (pause, compile, (r : Server.Perflab.result))) ->
       Printf.printf "%12d %12.3f %20.3f %12d %14d\n" w pause compile
         r.Server.Perflab.r_code_bytes r.Server.Perflab.r_output_hash)
    rows;
  let _, (pause1, _, r1) = List.hd rows in
  let pause4, _, _ = List.assoc 4 rows in
  Printf.printf "\npause speedup @ 4 workers: %.2fx\n"
    (if pause4 > 0.0 then pause1 /. pause4 else 0.0);
  let deterministic =
    List.for_all
      (fun (_, (_, _, (r : Server.Perflab.result))) ->
         r.Server.Perflab.r_output_hash = r1.Server.Perflab.r_output_hash
         && r.Server.Perflab.r_code_bytes = r1.Server.Perflab.r_code_bytes)
      rows
  in
  Printf.printf "deterministic across worker counts: %b\n" deterministic;
  if not deterministic then begin
    prerr_endline
      "ERROR: output hash or code bytes diverge across --jit-workers counts";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Parallel request serving: throughput by request-worker count        *)
(* ------------------------------------------------------------------ *)

type serving_sample = {
  ss_jit_workers : int;
  ss_request_workers : int;
  ss_requests : int;
  ss_wall_s : float;
  ss_req_per_s : float;
  ss_weighted_cycles : float;       (* weighted avg cycles/request *)
  ss_output_hash : int;
  (* frozen-dispatch cost of the burst itself (counter deltas around the
     serving run; zero for rw=1, which has no frozen dispatch) *)
  ss_miss : int;                    (* serving.translation_miss *)
  ss_fallback : int;                (* serving.interp_fallback *)
  ss_lazy : int;                    (* lazy_translate.compiled *)
}

(** A fresh engine brought to steady state, as a production server would
    have it: 15 warmup rounds over the endpoint mix, then retranslate-all. *)
let steady_engine (opts : Core.Jit_options.t) =
  Server.Serving.bring_up ~opts
    ~warmup:(Server.Serving.mix ~base:0 ~rounds:15 ()) ()

let worker_opts ~(jit_workers : int) ~(request_workers : int) =
  let opts = Core.Jit_options.default () in
  opts.Core.Jit_options.jit_workers <- jit_workers;
  opts.Core.Jit_options.request_workers <- request_workers;
  opts

(** Bring up a steady-state engine, then serve a deterministic request mix
    across [request_workers] domains and measure throughput.  Wall clock
    is best-of-[reps]; outputs and the hash are deterministic, so only the
    last run's result is kept. *)
let measure_serving ~(reps : int) ~(jit_workers : int)
    ~(request_workers : int) : serving_sample =
  let best = ref infinity in
  let last = ref None in
  for _ = 1 to reps do
    let u, eng = steady_engine (worker_opts ~jit_workers ~request_workers) in
    let requests = Server.Serving.mix ~rounds:30 () in
    (* per-burst counter deltas: warmup and retranslate also dispatch, so
       the burst's own miss/fallback/lazy-compile counts are deltas around
       the serving run (worker counters are absorbed at the join, so the
       post-run read sees every worker's bumps) *)
    let cv = Obs.Vmstats.counter_value in
    let m0 = cv "serving.translation_miss"
    and f0 = cv "serving.interp_fallback"
    and l0 = cv "lazy_translate.compiled" in
    let r = Server.Serving.run u eng requests in
    let counts =
      (cv "serving.translation_miss" - m0,
       cv "serving.interp_fallback" - f0,
       cv "lazy_translate.compiled" - l0)
    in
    if r.Server.Serving.sv_wall_s < !best then best := r.Server.Serving.sv_wall_s;
    last := Some (requests, r, counts)
  done;
  let requests, r, (miss, fallback, lazy_compiled) = Option.get !last in
  let n = Array.length requests in
  { ss_jit_workers = jit_workers;
    ss_request_workers = request_workers;
    ss_requests = n;
    ss_wall_s = !best;
    ss_req_per_s = float_of_int n /. !best;
    ss_weighted_cycles =
      Server.Serving.weighted_cycles requests r.Server.Serving.sv_cycles;
    ss_output_hash = r.Server.Serving.sv_output_hash;
    ss_miss = miss;
    ss_fallback = fallback;
    ss_lazy = lazy_compiled }

(** The serving sweep: request workers {1,2,4} at serial compile, plus the
    combined (jit-workers 4 x request-workers 4) configuration.  Output
    hashes must be identical across every configuration — a divergence
    means a data race changed program behaviour. *)
let serving_sweep ~(reps : int) : serving_sample list * bool =
  let configs = [ (1, 1); (1, 2); (1, 4); (4, 4) ] in
  let samples =
    List.map
      (fun (jw, rw) ->
         measure_serving ~reps ~jit_workers:jw ~request_workers:rw)
      configs
  in
  let deterministic =
    match samples with
    | s :: rest ->
      List.for_all (fun s' -> s'.ss_output_hash = s.ss_output_hash) rest
    | [] -> true
  in
  (samples, deterministic)

let print_serving (samples : serving_sample list) (deterministic : bool) =
  Printf.printf "%4s %4s %10s %10s %12s %14s %6s %6s %6s\n"
    "jw" "rw" "requests" "wall (s)" "req/s" "w.cycles/req"
    "miss" "interp" "lazy";
  List.iter
    (fun s ->
       Printf.printf "%4d %4d %10d %10.4f %12.0f %14.0f %6d %6d %6d\n"
         s.ss_jit_workers s.ss_request_workers s.ss_requests s.ss_wall_s
         s.ss_req_per_s s.ss_weighted_cycles s.ss_miss s.ss_fallback
         s.ss_lazy)
    samples;
  Printf.printf "output hash identical across configurations: %b\n"
    deterministic;
  if not deterministic then begin
    prerr_endline
      "ERROR: output hash diverges across request-worker configurations";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Startup: cold vs jumpstarted requests-to-steady-state (§6.2)        *)
(* ------------------------------------------------------------------ *)

let print_startup (r : Server.Startup.startup_report) =
  let row name (m : Server.Startup.startup_metrics) =
    Printf.printf
      "%-10s %10d %10.1f%% %6.2f %6.2f %6.2f %6d %5d %6d %9d\n"
      name m.Server.Startup.su_requests_to_steady
      m.Server.Startup.su_first_window_pct m.Server.Startup.su_point_a_min
      m.Server.Startup.su_point_b_min m.Server.Startup.su_point_c_min
      m.Server.Startup.su_prof_translations
      m.Server.Startup.su_opt_translations
      m.Server.Startup.su_retranslate_runs
      m.Server.Startup.su_main_code_kb
  in
  Printf.printf "%-10s %10s %11s %6s %6s %6s %6s %5s %6s %9s\n"
    "start" "to-steady" "win0 rps" "A" "B" "C" "prof" "opt" "retr"
    "main KB";
  row "cold" r.Server.Startup.sr_cold;
  row "jumpstart" r.Server.Startup.sr_jump;
  Printf.printf
    "\njumpstart reaches steady state %d requests earlier (cold %d -> %d)\n"
    r.Server.Startup.sr_delta_requests
    r.Server.Startup.sr_cold.Server.Startup.su_requests_to_steady
    r.Server.Startup.sr_jump.Server.Startup.su_requests_to_steady;
  Printf.printf "output hash identical cold vs jumpstarted: %b\n"
    r.Server.Startup.sr_hash_match;
  Printf.printf "jumpstart image: %d bytes\n"
    r.Server.Startup.sr_image_bytes;
  if not r.Server.Startup.sr_hash_match then begin
    prerr_endline "ERROR: output hash diverges between cold and jumpstarted runs";
    exit 1
  end;
  if r.Server.Startup.sr_jump.Server.Startup.su_prof_translations <> 0
  || r.Server.Startup.sr_jump.Server.Startup.su_retranslate_runs <> 0
  then begin
    prerr_endline
      "ERROR: jumpstarted run still profiled or retranslated (warmup not skipped)";
    exit 1
  end

let startup () =
  hdr "Startup: requests to steady state, cold vs jumpstarted (§6.2)"
    "jumpstart serializes profile data + TC metadata so restarted servers \
     skip the warmup cliff";
  print_startup (Server.Startup.measure_startup ())

(* ------------------------------------------------------------------ *)
(* TC lifecycle: liveness-driven eviction + Main compaction under a    *)
(* shifting request mix (§6.4's budget pressure, made continuous)      *)
(* ------------------------------------------------------------------ *)

type lifecycle_sample = {
  tl_budget : int;              (* code-size cap the scenario ran under *)
  tl_opt_translations : int;    (* published optimized translations at peak *)
  tl_evicted : int;
  tl_evicted_bytes : int;
  tl_holes_before : int;        (* dead bytes diluting Main+Cold pre-compact *)
  tl_holes_after : int;         (* must be 0: compaction closes every hole *)
  tl_reclaimed : int;           (* bytes the compaction returned to the pool *)
  tl_counted_before : int;      (* budget-counted bytes around the compaction *)
  tl_counted_after : int;
  tl_main_before : int;         (* Main-section extent around the compaction *)
  tl_main_after : int;
  tl_icache_before : int;       (* burst i-cache misses on the holey cache *)
  tl_icache_after : int;        (* same burst after compaction *)
  tl_itlb_before : int;
  tl_itlb_after : int;
  tl_cycles_before : float;     (* weighted cycles/req, same two bursts *)
  tl_cycles_after : float;
  tl_hash_stable : bool;        (* identical outputs across evict+compact *)
}

(** Liveness threshold for the lifecycle scenarios.  The shifted mix
    carries only a handful of requests per endpoint per decay window, so
    a surviving translation's score settles near 2x its per-window execs
    (the decay fixed point) — single digits.  The threshold sits just
    below that, and the decay loop runs enough ticks that abandoned
    code's warm score (hundreds to thousands of execs) halves its way
    underneath it. *)
let lifecycle_threshold = 3

(** A steady-state engine with the lifecycle knobs set. *)
let lifecycle_engine ~(budget : int option) ~(jit_workers : int)
    ~(request_workers : int) ~(threshold : int) ~(compact : bool) () =
  let opts = worker_opts ~jit_workers ~request_workers in
  opts.Core.Jit_options.code_budget <- budget;
  opts.Core.Jit_options.tc_evict_threshold <- threshold;
  opts.Core.Jit_options.tc_compact <- compact;
  steady_engine opts

(** Size the deployment cap off an uncapped bring-up: steady-state counted
    bytes plus a sliver of headroom.  Holes left by eviction count against
    this cap, so the budget only breathes again when compaction closes
    them — the pressure that makes the lifecycle earn its keep. *)
let lifecycle_budget () : int =
  let _, eng =
    lifecycle_engine ~budget:None ~jit_workers:1 ~request_workers:1
      ~threshold:0 ~compact:false ()
  in
  Simcpu.Codecache.bytes_counted eng.Core.Engine.cache + 4096

(** Interleave small shifted bursts with lifecycle ticks: traffic the
    shifted mix still carries keeps its liveness score replenished, while
    abandoned code's score halves every tick until it crosses the
    eviction threshold (age >= 2 guards newly placed code). *)
let lifecycle_decay_loop ?workers u eng =
  for salt = 1 to 12 do
    ignore
      (Server.Serving.run ?workers u eng
         (Server.Serving.mix_shifted ~salt ~rounds:2 ()));
    ignore (Core.Engine.tc_lifecycle_tick eng)
  done

(** The measured scenario, single-domain for determinism: steady traffic,
    then the mix shifts and the decay loop evicts the abandoned code
    (compaction held off so the holey cache is observable), then the same
    shifted burst is measured before and after one explicit compaction.
    Both measured bursts run against identical lazily-recompiled state
    (a steadying burst in between absorbs the one-time recompiles), so
    the i-cache / I-TLB deltas isolate code density. *)
let measure_lifecycle ~(budget : int) () : lifecycle_sample =
  let u, eng =
    lifecycle_engine ~budget:(Some budget) ~jit_workers:1 ~request_workers:1
      ~threshold:lifecycle_threshold ~compact:false ()
  in
  (* measure on small I-TLB pages: with the hot section mapped on one
     simulated huge page the I-TLB cannot see layout at all, and the
     point of this scenario is exactly the density the holes destroy *)
  eng.Core.Engine.opts.Core.Jit_options.huge_pages <- false;
  let lo, hi = Simcpu.Codecache.main_range eng.Core.Engine.cache in
  Simcpu.Itlb.set_huge eng.Core.Engine.machine.Core.Exec.itlb
    ~enabled:false ~lo ~hi;
  let cache = eng.Core.Engine.cache in
  let opt_translations =
    List.length
      (List.filter
         (fun (tr : Core.Translation.t) ->
            tr.Core.Translation.tr_kind = Core.Translation.KOptimized)
         (Core.Tc_print.collect eng))
  in
  ignore (Server.Serving.run ~workers:1 u eng (Server.Serving.mix ~rounds:12 ()));
  let cv = Obs.Vmstats.counter_value in
  let ev0 = cv "tc.evicted" and evb0 = cv "tc.evicted_bytes" in
  lifecycle_decay_loop ~workers:1 u eng;
  let evicted = cv "tc.evicted" - ev0 in
  let evicted_bytes = cv "tc.evicted_bytes" - evb0 in
  let holes_before = Simcpu.Codecache.holes_bytes cache in
  let counted_before = Simcpu.Codecache.bytes_counted cache in
  let main_before =
    Simcpu.Codecache.section_bytes cache Simcpu.Codecache.Main in
  let shifted = Server.Serving.mix_shifted ~salt:99 ~rounds:12 () in
  (* steadying burst: any evicted-but-still-touched srckeys recompile as
     live tracelets here, once, off the measured path *)
  ignore (Server.Serving.run ~workers:1 u eng shifted);
  let m = eng.Core.Engine.machine in
  let ic0 = m.Core.Exec.icache.Simcpu.Icache.misses
  and tb0 = m.Core.Exec.itlb.Simcpu.Itlb.misses in
  let r_holey = Server.Serving.run ~workers:1 u eng shifted in
  let icache_before = m.Core.Exec.icache.Simcpu.Icache.misses - ic0
  and itlb_before = m.Core.Exec.itlb.Simcpu.Itlb.misses - tb0 in
  let reclaimed = Core.Engine.compact_tc eng in
  let holes_after = Simcpu.Codecache.holes_bytes cache in
  let counted_after = Simcpu.Codecache.bytes_counted cache in
  let main_after =
    Simcpu.Codecache.section_bytes cache Simcpu.Codecache.Main in
  let ic1 = m.Core.Exec.icache.Simcpu.Icache.misses
  and tb1 = m.Core.Exec.itlb.Simcpu.Itlb.misses in
  let r_compact = Server.Serving.run ~workers:1 u eng shifted in
  let icache_after = m.Core.Exec.icache.Simcpu.Icache.misses - ic1
  and itlb_after = m.Core.Exec.itlb.Simcpu.Itlb.misses - tb1 in
  { tl_budget = budget;
    tl_opt_translations = opt_translations;
    tl_evicted = evicted;
    tl_evicted_bytes = evicted_bytes;
    tl_holes_before = holes_before;
    tl_holes_after = holes_after;
    tl_reclaimed = reclaimed;
    tl_counted_before = counted_before;
    tl_counted_after = counted_after;
    tl_main_before = main_before;
    tl_main_after = main_after;
    tl_icache_before = icache_before;
    tl_icache_after = icache_after;
    tl_itlb_before = itlb_before;
    tl_itlb_after = itlb_after;
    tl_cycles_before =
      Server.Serving.weighted_cycles shifted r_holey.Server.Serving.sv_cycles;
    tl_cycles_after =
      Server.Serving.weighted_cycles shifted r_compact.Server.Serving.sv_cycles;
    tl_hash_stable =
      r_holey.Server.Serving.sv_output_hash
      = r_compact.Server.Serving.sv_output_hash }

(** Worker-config parity: the full lifecycle (decay loop with automatic
    compaction, plus one tick fired mid-burst from whichever serving
    domain crosses the halfway mark) must leave outputs bit-identical
    across (jit x request) worker configurations.  Victim sets may differ
    — exec counts race benignly under parallel serving — but eviction
    only changes the dispatch path, never a result. *)
let lifecycle_parity ~(budget : int) ()
  : (int * int * int * int) list * bool =
  let configs = [ (1, 1); (2, 2); (4, 4) ] in
  let rows =
    List.map
      (fun (jw, rw) ->
         let u, eng =
           lifecycle_engine ~budget:(Some budget) ~jit_workers:jw
             ~request_workers:rw ~threshold:lifecycle_threshold
             ~compact:true ()
         in
         let r_a =
           Server.Serving.run u eng (Server.Serving.mix ~rounds:12 ()) in
         lifecycle_decay_loop u eng;
         let shifted = Server.Serving.mix_shifted ~salt:99 ~rounds:12 () in
         let trigger =
           (Array.length shifted / 2,
            fun () -> ignore (Core.Engine.tc_lifecycle_tick eng))
         in
         let r_s = Server.Serving.run ~trigger u eng shifted in
         (jw, rw, r_a.Server.Serving.sv_output_hash,
          r_s.Server.Serving.sv_output_hash))
      configs
  in
  let deterministic =
    match rows with
    | (_, _, ha, hs) :: rest ->
      List.for_all (fun (_, _, ha', hs') -> ha' = ha && hs' = hs) rest
    | [] -> true
  in
  (rows, deterministic)

(** Run the full lifecycle scenario: sized budget, measured single-domain
    sample, worker-config parity sweep. *)
let lifecycle_sweep ()
  : lifecycle_sample * (int * int * int * int) list * bool =
  let budget = lifecycle_budget () in
  let sample = measure_lifecycle ~budget () in
  let rows, deterministic = lifecycle_parity ~budget () in
  (sample, rows, deterministic)

let print_lifecycle (s : lifecycle_sample)
    (rows : (int * int * int * int) list) (deterministic : bool) =
  Printf.printf
    "tc lifecycle: budget %d B, %d optimized translations at peak\n"
    s.tl_budget s.tl_opt_translations;
  Printf.printf
    "  evicted %d translations (%d B); holes %d B -> %d B after \
     compaction (%d B reclaimed)\n"
    s.tl_evicted s.tl_evicted_bytes s.tl_holes_before s.tl_holes_after
    s.tl_reclaimed;
  Printf.printf "  main section %d B -> %d B; counted %d B -> %d B\n"
    s.tl_main_before s.tl_main_after s.tl_counted_before s.tl_counted_after;
  Printf.printf
    "  shifted burst: icache misses %d -> %d, itlb misses %d -> %d, \
     weighted cycles/req %.0f -> %.0f\n"
    s.tl_icache_before s.tl_icache_after s.tl_itlb_before s.tl_itlb_after
    s.tl_cycles_before s.tl_cycles_after;
  Printf.printf "  outputs stable across evict+compact: %b\n" s.tl_hash_stable;
  List.iter
    (fun (jw, rw, ha, hs) ->
       Printf.printf "  parity jw=%d rw=%d: steady hash %d, shifted hash %d\n"
         jw rw ha hs)
    rows;
  Printf.printf "  parity across worker configurations: %b\n" deterministic;
  if s.tl_evicted = 0 then begin
    prerr_endline "ERROR: the mix shift evicted nothing";
    exit 1
  end;
  if not s.tl_hash_stable then begin
    prerr_endline "ERROR: output hash changed across eviction or compaction";
    exit 1
  end;
  if s.tl_holes_after <> 0 then begin
    prerr_endline "ERROR: compaction left holes in the code cache";
    exit 1
  end;
  if not deterministic then begin
    prerr_endline
      "ERROR: lifecycle output hash diverges across worker configurations";
    exit 1
  end

let tc_lifecycle () =
  hdr "TC lifecycle: eviction + compaction under a shifting request mix"
    "(liveness decay evicts abandoned optimized code; compaction closes \
     the holes and restores code density — §6.4 made continuous)";
  let sample, rows, deterministic = lifecycle_sweep () in
  print_lifecycle sample rows deterministic

let serving () =
  hdr "Parallel request serving: throughput by request-worker count"
    "(HHVM serves each request on its own thread over one shared \
     translation cache, §2; single-core hosts show no wall-clock win)";
  let samples, deterministic = serving_sweep ~reps:3 in
  print_serving samples deterministic

(* ------------------------------------------------------------------ *)
(* vmstats: key telemetry counters under each Fig. 10 knob             *)
(* ------------------------------------------------------------------ *)

let vmstats () =
  hdr "vmstats: telemetry counters under each Fig. 10 knob (Region mode)"
    "(not a paper figure; counter deltas explain the Fig. 10 slowdowns — \
     see EXPERIMENTS.md)";
  let keys =
    [ ("mono_hit", "dispatch.mono_hit");
      ("lnk.follow", "link.follow");
      ("lnk.smash", "link.smashed");
      ("guard.fail", "guard.fail");
      ("exit.bind", "exit.bind");
      ("trans.opt", "translate.optimized") ]
  in
  let configs =
    (("(baseline)", fun (_ : Core.Jit_options.t) -> ())
     :: Server.Perflab.ablations)
    @ [ ("Disp. caches", fun o -> o.Core.Jit_options.dispatch_caches <- false);
        ("Stats off", fun o -> o.Core.Jit_options.stats <- false) ]
  in
  Printf.printf "%-14s" "disabled";
  List.iter (fun (short, _) -> Printf.printf " %11s" short) keys;
  print_newline ();
  List.iter
    (fun (name, tweak) ->
       (* counters persist after the run: install resets them at entry *)
       ignore (Server.Perflab.run ~tweak Core.Jit_options.Region);
       Printf.printf "%-14s" name;
       List.iter
         (fun (_, key) ->
            Printf.printf " %11d" (Obs.Vmstats.counter_value key))
         keys;
       print_newline ())
    configs

(* ------------------------------------------------------------------ *)
(* Ablations: sensitivity of the design choices DESIGN.md calls out    *)
(* (not figures from the paper; §5.2.1/§5.3.1 discuss the trade-offs)  *)
(* ------------------------------------------------------------------ *)

let ablate () =
  hdr "Ablations: retranslation-chain length, region size, inline budget"
    "design-choice sensitivity (paper discusses these qualitatively)";
  let base = Server.Perflab.run Core.Jit_options.Region in
  let basec = base.Server.Perflab.r_weighted in
  let run name tweak =
    let r = Server.Perflab.run Core.Jit_options.Region ~tweak in
    Printf.printf "%-34s %14.0f %+8.1f%% %9d B\n" name
      r.Server.Perflab.r_weighted
      (100.0 *. (r.Server.Perflab.r_weighted /. basec -. 1.0))
      r.Server.Perflab.r_code_bytes
  in
  Printf.printf "%-34s %14s %9s %11s\n" "configuration" "cycles/req" "delta" "code";
  Printf.printf "%-34s %14.0f %9s %9d B\n" "(baseline)" basec "-"
    base.Server.Perflab.r_code_bytes;
  (* retranslation-chain length: 1 = a single specialization per srckey *)
  List.iter
    (fun n ->
       run (Printf.sprintf "chain length %d" n)
         (fun o -> o.Core.Jit_options.max_live_per_srckey <- n))
    [ 1; 2; 8 ];
  (* region instruction budget (§5.2.1: large functions split) *)
  List.iter
    (fun n ->
       run (Printf.sprintf "max region instrs %d" n)
         (fun o -> o.Core.Jit_options.max_region_instrs <- n))
    [ 20; 50; 400 ];
  (* partial-inlining budget (§5.3.1: callee size suitability) *)
  List.iter
    (fun n ->
       run (Printf.sprintf "inline budget %d instrs" n)
         (fun o -> o.Core.Jit_options.max_inline_instrs <- n))
    [ 10; 80 ];
  (* register file size (regalloc pressure) *)
  List.iter
    (fun n ->
       run (Printf.sprintf "%d physical registers" n)
         (fun o -> o.Core.Jit_options.nregs <- n))
    [ 4; 8 ]

let () =
  let what = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  (match what with
   | "fig8" -> fig8 ()
   | "fig9" -> fig9 ()
   | "fig10" -> fig10 ()
   | "fig11" -> fig11 ()
   | "table1" -> table1 ()
   | "micro" -> micro ()
   | "ablate" -> ablate ()
   | "vmstats" -> vmstats ()
   | "serving" -> serving ()
   | "startup" -> startup ()
   | "tc_lifecycle" -> tc_lifecycle ()
   | "retranslate" -> retranslate ()
   | "all" ->
     (* micros first, on a fresh heap: the sweeps leave tens of MB of
        major heap whose GC pauses inflate the timings *)
     micro ();
     fig8 (); fig9 (); fig10 (); fig11 (); table1 (); ablate ();
     vmstats (); serving (); startup (); tc_lifecycle (); retranslate ()
   | other ->
     Printf.eprintf
       "unknown target %S \
        (use fig8|fig9|fig10|fig11|table1|ablate|vmstats|serving|startup|\
         tc_lifecycle|retranslate|micro|all)\n"
       other;
     exit 1);
  line ()

