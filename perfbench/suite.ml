(** The benchmark suite: one seeded workload per process.

    Usage:
      suite.exe --workload W [--seed S] [--seconds T] [--trace 0|1] [--smoke]
      suite.exe --print-digests

    Workloads (see perfbench/README.md for why each one exists):
      steady_region  Region mode, optimized code published, 1 client
      steady_interp  Interp mode, same stream shape, 1 client
      cold_start     repeated restarts: load, profile, retranslate, serve
      churn_rw2      Region mode, 2 request workers, lazy compile, eviction

    The suite drives every layer only through its public functions.  It
    draws all requests from [--seed], checks every output against an
    interpreter oracle (itself checked against expected_outputs.txt), and
    measures for [--seconds] after set-up.  With [--trace 0] it reports the
    end-to-end metrics; with [--trace 1] it records spans around its own
    calls into each layer, replays one retranslate-all stage by stage, and
    reports the per-layer metrics.  The last line of standard output is one
    JSON object: {correct, attempted, failed, metrics}. *)

module Sv = Server.Serving
module Eng = Core.Engine
module Opt = Core.Jit_options

let endpoints = Array.of_list Workloads.Endpoints.endpoints

(* ------------------------------------------------------------------ *)
(* Clock and statistics                                                *)
(* ------------------------------------------------------------------ *)

(** Monotonic host time in nanoseconds. *)
let now () : int = Int64.to_int (Monotonic_clock.now ())

let ratio (a : float) (b : float) : float = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

let median (xs : float list) : float =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let median_ns (xs : int list) : float = median (List.map fi xs)

(** First and third quartile, by the same exclusive method as Python's
    [statistics.quantiles(xs, n=4)], so the suite and agree.py agree. *)
let quartiles (xs : float list) : float * float =
  let a = Array.of_list xs in
  Array.sort compare a;
  let ld = Array.length a in
  if ld < 2 then (median xs, median xs)
  else begin
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. fi (4 - delta)) +. (a.(j) *. fi delta)) /. 4.0
    in
    (q 1, q 3)
  end

(** Exact nearest-rank percentile of an unsorted sample. *)
let percentile (xs : int array) (p : float) : int =
  let s = Array.copy xs in
  Array.sort compare s;
  Sv.percentile_exact s p

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(** One timed call from the suite into a layer.  [parent] is 0 for the
    root; [req] is the request sequence number, -1 outside requests;
    [cycles] is the simulated-cycle ledger delta over the span (counted
    from the reset when the span itself reloads a unit). *)
type span = {
  id : int;
  parent : int;
  req : int;
  layer : string;
  name : string;
  start_ns : int;
  end_ns : int;
  cycles : int;
}

(** [--trace 1] was given. *)
let trace_mode = ref false

(** Spans are being recorded right now (off inside untraced batches). *)
let tracing = ref false

let spans : span list ref = ref []
let open_spans : int list ref = ref []
let next_span = ref 0
let next_req = ref 0

let span ?(req = -1) (layer : string) (name : string) (f : unit -> 'a) : 'a =
  if not !tracing then f ()
  else begin
    incr next_span;
    let id = !next_span in
    let parent = match !open_spans with p :: _ -> p | [] -> 0 in
    open_spans := id :: !open_spans;
    let c0 = Runtime.Ledger.read () in
    let start_ns = now () in
    let finish () =
      let end_ns = now () in
      let c1 = Runtime.Ledger.read () in
      open_spans := List.tl !open_spans;
      spans :=
        { id; parent; req; layer; name; start_ns; end_ns;
          cycles = (if c1 >= c0 then c1 - c0 else c1) }
        :: !spans
    in
    match f () with
    | x -> finish (); x
    | exception e -> finish (); raise e
  end

(** Run [f] with span recording off, as one "untraced" span: the traced
    run interleaves untraced batches to measure the tracing overhead. *)
let untraced (f : unit -> 'a) : 'a =
  if not !trace_mode then f ()
  else
    span "untraced" "batch" (fun () ->
        tracing := false;
        Fun.protect ~finally:(fun () -> tracing := true) f)

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

let production = Array.map (fun ep -> ep.Workloads.Endpoints.ep_weight) endpoints

(** The shifted mix, as in [Serving.mix_shifted]: each endpoint takes the
    weight of its mirror rounded down to a multiple of 10, so formerly hot
    endpoints whose mirror weighs less than 10 vanish from the traffic and
    their optimized code decays into eviction. *)
let shifted =
  let k = Array.length endpoints in
  Array.mapi (fun i _ -> production.(k - 1 - i) / 10 * 10) endpoints

let arg_space = 512

let shuffle (rng : Random.State.t) (a : 'a array) : unit =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(** How many of [n] requests each endpoint gets: its share of the weights,
    rounded down, with the remainder going to the largest fractions. *)
let composition (weights : int array) (n : int) : int array =
  let total = Array.fold_left ( + ) 0 weights in
  let counts = Array.map (fun wt -> n * wt / total) weights in
  let left = n - Array.fold_left ( + ) 0 counts in
  List.init (Array.length weights) (fun i -> (n * weights.(i) mod total, i))
  |> List.sort (fun (fa, ia) (fb, ib) -> compare (fb, ia) (fa, ib))
  |> List.iteri (fun k (_, i) -> if k < left then counts.(i) <- counts.(i) + 1);
  counts

(** [n] requests from the seed: each endpoint appears exactly its weighted
    share of times, in a seeded random order, with a uniform argument in
    [0, arg_space).  Fixing the shares keeps the mix itself from varying
    with the seed; the seed varies order and arguments.  [stream]
    separates the inputs of one seed (warmup, measured pool, ...). *)
let draw ~(seed : int) ~(stream : int) ~(weights : int array) (n : int)
  : Sv.request array =
  let rng = Random.State.make [| seed; stream |] in
  let eps =
    Array.concat
      (Array.to_list
         (Array.mapi (fun i k -> Array.make k endpoints.(i))
            (composition weights n)))
  in
  shuffle rng eps;
  Array.map
    (fun ep -> { Sv.rq_ep = ep; rq_arg = Random.State.int rng arg_space })
    eps

(* ------------------------------------------------------------------ *)
(* Correctness: interpreter oracle and output digests                  *)
(* ------------------------------------------------------------------ *)

(** Every endpoint's output for every argument, computed by the
    interpreter on a fresh unit before the workload starts. *)
let compute_oracle () : (string, string array) Hashtbl.t =
  let u = Vm.Loader.load Workloads.Endpoints.source in
  let opts = Opt.default () in
  opts.Opt.mode <- Opt.Interp;
  ignore (Eng.install ~opts u);
  let t = Hashtbl.create 16 in
  Array.iter
    (fun (ep : Workloads.Endpoints.endpoint) ->
       Hashtbl.replace t ep.ep_name
         (Array.init arg_space (Server.Perflab.call_endpoint u ep)))
    endpoints;
  t

let digest_lines (oracle : (string, string array) Hashtbl.t) : string list =
  Array.to_list
    (Array.map
       (fun (ep : Workloads.Endpoints.endpoint) ->
          let outs = Hashtbl.find oracle ep.ep_name in
          Printf.sprintf "%s %s" ep.ep_name
            (Digest.to_hex
               (Digest.string (String.concat "\n" (Array.to_list outs)))))
       endpoints)

let expected_path = "perfbench/expected_outputs.txt"

let read_lines (path : string) : string list =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (if String.trim l = "" then acc else String.trim l :: acc)
    | exception End_of_file -> close_in ic; List.rev acc
  in
  go []

let oracle : (string, string array) Hashtbl.t ref = ref (Hashtbl.create 1)
let attempted = ref 0
let failed = ref 0

(** Compare served outputs with the oracle; a raised request has output
    [""], which no endpoint produces. *)
let check (reqs : Sv.request array) (outputs : string array) : unit =
  Array.iteri
    (fun i (rq : Sv.request) ->
       incr attempted;
       let want = (Hashtbl.find !oracle rq.rq_ep.ep_name).(rq.rq_arg) in
       if outputs.(i) <> want then incr failed)
    reqs

(* ------------------------------------------------------------------ *)
(* Counters, read through the layers' public APIs                      *)
(* ------------------------------------------------------------------ *)

let vmstats_counters =
  [ "dispatch.mono_hit"; "dispatch.mono_miss"; "dispatch.chain_miss";
    "guard.fail"; "link.follow"; "exit.bind"; "serving.translation_miss";
    "serving.interp_fallback"; "lazy_translate.compiled";
    "lazy_translate.entered"; "lease.contended"; "epoch.delta_publish";
    "tc.evicted"; "tc.evicted_bytes"; "tc.compact_runs" ]

(** Monotonic counters of the running engine and process; a measured
    phase is the difference of two readings. *)
let read (eng : Eng.t) : (string * int) list =
  let a = Runtime.Ledger.acct () in
  let m = eng.Eng.machine in
  let h = Runtime.Heap.stats () in
  let g = Gc.quick_stat () in
  [ ("cycles", a.Runtime.Ledger.a_cycles);
    ("interp_cycles", a.Runtime.Ledger.a_interp);
    ("jit_cycles", a.Runtime.Ledger.a_jit);
    ("interp_instrs", Vm.Interp.instr_count ());
    ("exec_instrs", m.Core.Exec.instrs_executed);
    ("icache_misses", m.Core.Exec.icache.Simcpu.Icache.misses);
    ("itlb_misses", m.Core.Exec.itlb.Simcpu.Itlb.misses);
    ("heap_allocs", h.Runtime.Heap.allocated);
    ("refops", h.Runtime.Heap.incref_ops + h.Runtime.Heap.decref_ops);
    ("minor_words", int_of_float g.Gc.minor_words);
    ("major_collections", g.Gc.major_collections) ]
  @ List.map (fun c -> (c, Obs.Vmstats.counter_value c)) vmstats_counters

let diff a b = List.map2 (fun (k, x) (_, y) -> (k, y - x)) a b
let add a b = List.map2 (fun (k, x) (_, y) -> (k, x + y)) a b

(** Compile-side counters, totals since install. *)
let compile_counters =
  [ "translate.live"; "translate.profiling"; "translate.optimized";
    "translate.rejected"; "pass.simplify.changed"; "pass.load_elim.changed";
    "pass.gvn.changed"; "pass.store_elim.changed"; "pass.rce.changed";
    "pass.dce.changed"; "pass.unreachable.changed" ]

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type shape =
  | Steady    (** bring-up, then passes over one seeded request pool *)
  | Restarts  (** each batch is a full restart *)
  | Churn     (** parallel bursts, mix flips, lifecycle ticks *)

type workload = {
  w_name : string;
  w_shape : shape;
  w_mode : Opt.mode;
  w_request_workers : int;
  w_evict_threshold : int;   (** 0 = code-cache lifecycle off *)
  w_interval : int;
  (** open-loop arrival interval for [sim_open_p99_cycles], in simulated
      cycles: about 1.25x the steady cost per request at the commit that
      defined the benchmark, fixed so later changes are measured against
      the same offered load *)
}

let workloads =
  [ { w_name = "steady_region"; w_shape = Steady; w_mode = Opt.Region;
      w_request_workers = 1; w_evict_threshold = 0; w_interval = 15_750 };
    { w_name = "steady_interp"; w_shape = Steady; w_mode = Opt.Interp;
      w_request_workers = 1; w_evict_threshold = 0; w_interval = 110_000 };
    { w_name = "cold_start"; w_shape = Restarts; w_mode = Opt.Region;
      w_request_workers = 1; w_evict_threshold = 0; w_interval = 15_750 };
    { w_name = "churn_rw2"; w_shape = Churn; w_mode = Opt.Region;
      w_request_workers = 2; w_evict_threshold = 3; w_interval = 20_250 } ]

let warmup_requests = 600     (* requests served while profiling *)
let pool_size = 1000          (* one Steady pass *)
let cold_post_requests = 200  (* served after retranslate_all in a restart *)
let burst = 100               (* requests per churn Serving.run burst *)
let bursts_per_mix = 10       (* churn: the mix flips every 10 bursts *)
let steady_window = 100       (* requests_to_steady sliding window *)

(** Every option the workload depends on is pinned here; the suite refuses
    to run while any [engine_env] variable could override one. *)
let opts_for (w : workload) ~(budget : int option) : Opt.t =
  let o = Opt.default () in
  o.Opt.mode <- w.w_mode;
  o.Opt.jit_workers <- 1;
  o.Opt.request_workers <- w.w_request_workers;
  o.Opt.lazy_translate <- true;
  o.Opt.code_budget <- budget;
  o.Opt.tc_evict_threshold <- w.w_evict_threshold;
  o.Opt.tc_compact <- w.w_evict_threshold > 0;
  o

let engine_env =
  [ "JIT_WORKERS"; "REQUEST_WORKERS"; "LAZY_TRANSLATE"; "TC_EVICT_THRESHOLD";
    "TC_COMPACT"; "JIT_STATS"; "SPANS"; "INTERP_THREADED"; "JIT_TRACE";
    "JIT_TRACE_OUT"; "SNAPSHOT_OUT"; "SNAPSHOT_INTERVAL" ]

(* ------------------------------------------------------------------ *)
(* Measurements of one run                                             *)
(* ------------------------------------------------------------------ *)

(** One measured batch, reduced to what the metrics need (the suite keeps
    no per-request data across batches, so its own memory stays small). *)
type batch = {
  b_ns : int;                (** host wall time of the batch *)
  b_requests : int;
  b_traced : bool;
  b_host : int array;        (** host p50, p90, p99 per request, ns *)
  b_weighted : float;        (** endpoint-weighted simulated cycles/request *)
  b_sim : int array;         (** simulated p50, p99 per request *)
  b_open_p99 : float;        (** open-loop p99 sojourn, simulated cycles *)
}

type run = {
  mutable batches : batch list;
  mutable setup_ns : int list;        (** bring-ups *)
  mutable load_ns : int list;
  mutable hhbbc_ns : int list;
  mutable pause_ns : int list;        (** retranslate_all calls *)
  mutable restart_ns : int list;      (** untraced restarts *)
  mutable burst_ns : int list;        (** untraced churn bursts *)
  mutable tick_ns : int list;         (** untraced lifecycle ticks *)
  mutable measured : (string * int) list;  (** counter deltas, summed *)
  mutable server_ns : int;            (** server spans in traced batches *)
  mutable peak_heap : float;          (** MiB, at the end of the first bring-up *)
  mutable first_restart : int array;  (** cycles of the first restart *)
  mutable compile : (string * int) list;
  mutable unit_stats : (string * float) list;
  mutable replay : (string * float) list;
  mutable replay_ok : bool;
}

let fresh_run () = {
  batches = []; setup_ns = []; load_ns = []; hhbbc_ns = []; pause_ns = [];
  restart_ns = []; burst_ns = []; tick_ns = []; measured = []; server_ns = 0;
  peak_heap = 0.0;
  first_restart = [||]; compile = []; unit_stats = []; replay = [];
  replay_ok = true;
}

let add_measured (r : run) (delta : (string * int) list) : unit =
  r.measured <- (if r.measured = [] then delta else add r.measured delta)

(** Lindley recursion: sojourn time of each request when requests arrive
    every [interval] cycles at one FIFO server, queue empty at start. *)
let sojourns ~(interval : int) (cycles : int array) : int array =
  let wait = ref 0 in
  Array.map
    (fun s ->
       let t = !wait + s in
       wait := max 0 (t - interval);
       t)
    cycles

let arrival_orders = 32

(** p99 sojourn of a batch's requests arriving open-loop every [interval]
    cycles: the median over [arrival_orders] seeded arrival orders, so the
    figure depends on the batch's costs rather than on the one order its
    pool happened to be drawn in.  Equal batches give equal values. *)
let open_p99 ~(interval : int) (cycles : int array) : float =
  let rng = Random.State.make [| 0x5eed |] in
  let a = Array.copy cycles in
  median
    (List.init arrival_orders (fun _ ->
         shuffle rng a;
         fi (percentile (sojourns ~interval a) 99.0)))

let pcts xs ps = Array.map (percentile xs) ps

(* the previous batch's requests, cycles and simulated summary:
   single-worker batches repeat, and their summary is computed once *)
let last_sim = ref ([||], [||], (0.0, [||], 0.0))

let summarize (w : workload) ~traced ~ns (reqs : Sv.request array)
    (cycles : int array) (host : int array) : batch =
  let prev_reqs, prev_cycles, prev = !last_sim in
  let weighted, sim, open_ =
    if reqs == prev_reqs && cycles = prev_cycles then prev
    else begin
      let s =
        (Sv.weighted_cycles reqs cycles, pcts cycles [| 50.0; 99.0 |],
         open_p99 ~interval:w.w_interval cycles)
      in
      last_sim := (reqs, cycles, s);
      s
    end
  in
  { b_ns = ns;
    b_requests = Array.length reqs;
    b_traced = traced;
    b_host = pcts host [| 50.0; 90.0; 99.0 |];
    b_weighted = weighted;
    b_sim = sim;
    b_open_p99 = open_ }

(** Serve batches until host time [until], at least [min_batches] of them.
    [serve] returns a batch's requests, their simulated cycles and its
    host-time samples.  In the traced run batches alternate untraced /
    traced across the whole run, so the tracing overhead is measured in
    one process over the same heap state. *)
let measure (r : run) (w : workload) ~(until : int) ~(min_batches : int)
    (serve : traced:bool -> Sv.request array * int array * int array) : unit =
  let k = ref 0 in
  while !k < min_batches || now () < until do
    let traced = !trace_mode && List.length r.batches mod 2 = 1 in
    let first_span = !next_span in
    let t0 = now () in
    let reqs, cycles, host =
      if traced then serve ~traced else untraced (fun () -> serve ~traced)
    in
    let ns = now () - t0 in
    if traced then begin
      let rec sum acc = function
        | s :: rest when s.id > first_span ->
          sum (if s.layer = "server" then acc + s.end_ns - s.start_ns else acc)
            rest
        | _ -> acc
      in
      r.server_ns <- sum r.server_ns !spans
    end;
    r.batches <-
      span "bench" "summarize" (fun () -> summarize w ~traced ~ns reqs cycles host)
      :: r.batches;
    incr k
  done

let min_batches () = if !trace_mode then 2 else 1

(** Measure [serve] on one engine for [seconds]; its counter deltas are
    added to the run's. *)
let segment (r : run) (w : workload) (eng : Eng.t) ~(seconds : float) serve =
  let before = read eng in
  measure r w ~until:(now () + int_of_float (seconds *. 1e9))
    ~min_batches:(min_batches ()) serve;
  add_measured r (diff before (read eng))

(** Serve [reqs] one at a time through [Serving.serve_request]; returns
    simulated cycles and host ns per request.  Outputs are checked after
    the batch, off the timed path. *)
let serve_serial (u : Hhbc.Hunit.t) (eng : Eng.t) (reqs : Sv.request array)
  : int array * int array =
  let n = Array.length reqs in
  let outputs = Array.make n "" in
  let cycles = Array.make n 0 and host = Array.make n 0 in
  let post () = None in
  for i = 0 to n - 1 do
    incr next_req;
    let t0 = now () in
    (try
       span ~req:!next_req "server" "Serving.serve_request" (fun () ->
           Sv.serve_request u eng ~outputs ~cycles ~post reqs i)
     with _ -> outputs.(i) <- "");
    host.(i) <- now () - t0
  done;
  span "bench" "check" (fun () -> check reqs outputs);
  (cycles, host)

(** Load, run hhbbc and install: the front half of every bring-up. *)
let install_unit (r : run) (w : workload) ~(budget : int option)
  : Hhbc.Hunit.t * Eng.t =
  let t0 = now () in
  let u =
    span "hhbc" "Vm.Loader.load" (fun () ->
        Vm.Loader.load Workloads.Endpoints.source)
  in
  let t1 = now () in
  let asserts =
    span "hhbbc" "Assert_insert.run" (fun () -> Hhbbc.Assert_insert.run u)
  in
  let rewrites = span "hhbbc" "Bc_opt.run" (fun () -> Hhbbc.Bc_opt.run u) in
  let t2 = now () in
  r.load_ns <- (t1 - t0) :: r.load_ns;
  r.hhbbc_ns <- (t2 - t1) :: r.hhbbc_ns;
  let instrs = ref 0 in
  for fid = 0 to Hhbc.Hunit.num_funcs u - 1 do
    instrs :=
      !instrs + Array.length (Hhbc.Hunit.func u fid).Hhbc.Instr.fn_body
  done;
  r.unit_stats <-
    [ ("hhbc.unit_instrs", fi !instrs); ("hhbbc.asserts", fi asserts);
      ("hhbbc.rewrites", fi rewrites) ];
  let eng =
    span "core" "Engine.install" (fun () ->
        Eng.install ~opts:(opts_for w ~budget) u)
  in
  (u, eng)

let peak_heap_mb () =
  fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(** End of a bring-up begun at [t0]: its wall time is a set-up sample, and
    the first one fixes [peak_heap_mb], the heap high-water mark of
    loading, profiling and compiling.  Read there, it does not depend on
    how much serving fits in the time or on parallel scheduling. *)
let end_bring_up (r : run) (t0 : int) : unit =
  r.setup_ns <- (now () - t0) :: r.setup_ns;
  if r.peak_heap = 0.0 then r.peak_heap <- peak_heap_mb ()

let record_compile (r : run) : unit =
  r.compile <-
    List.map (fun c -> (c, Obs.Vmstats.counter_value c)) compile_counters

let retranslate (r : run) (eng : Eng.t) : unit =
  let t0 = now () in
  ignore
    (span "core" "Engine.retranslate_all" (fun () -> Eng.retranslate_all eng));
  r.pause_ns <- (now () - t0) :: r.pause_ns;
  record_compile r

(* ------------------------------------------------------------------ *)
(* Compile replay (traced run)                                         *)
(* ------------------------------------------------------------------ *)

let ir_size (ir : Hhir.Ir.t) : int =
  List.fold_left
    (fun a (_, (b : Hhir.Ir.block)) -> a + List.length b.Hhir.Ir.b_instrs)
    0 ir.Hhir.Ir.blocks

let vasm_size (p : 'r Vasm.Vinstr.prog) : int =
  List.fold_left
    (fun a (vb : 'r Vasm.Vinstr.vblock) -> a + List.length vb.vb_instrs)
    0 p.Vasm.Vinstr.vblocks

let replays = 5

(** Recompile, stage by stage, what [retranslate_all] just compiled, in
    the order [Engine.prepare_region] uses, timing each stage and counting
    IR and Vasm sizes.  Must run right after [retranslate_all], before any
    request changes the profile.  The replay's bytes must equal the
    engine's [opt_bytes]; the median of [replays] replays is reported. *)
let replay (r : run) (eng : Eng.t) : unit =
  let opts = eng.Eng.opts in
  let lopts = Opt.lower_options opts in
  let funcs =
    Hashtbl.fold (fun fid _ acc -> fid :: acc) Region.Transcfg.blocks_by_func []
    |> List.sort_uniq compare
  in
  let one () =
    let ns = Hashtbl.create 16 in
    let stage key layer name f =
      let t0 = now () in
      let x = span layer name f in
      let prev = Option.value (Hashtbl.find_opt ns key) ~default:0 in
      Hashtbl.replace ns key (prev + now () - t0);
      x
    in
    let regions = ref 0 and blocks = ref 0 in
    let arcs_covered = ref 0 and arcs_total = ref 0 in
    let ir_lowered = ref 0 and ir_after = ref 0 in
    let vinstrs = ref 0 and spills = ref 0 and bytes = ref 0 in
    span "core" "compile_replay" (fun () ->
        let snap =
          stage "form" "region" "Transcfg.snapshot" (fun () ->
              Region.Transcfg.snapshot funcs)
        in
        let weight = Region.Transcfg.snap_weight snap in
        List.iter
          (fun fid ->
             arcs_total :=
               !arcs_total
               + List.length (Region.Transcfg.snap_cfg snap fid).Region.Transcfg.t_arcs;
             let formed =
               stage "form" "region" "Form.form_snapshot_regions" (fun () ->
                   Region.Form.form_snapshot_regions
                     ~max_instrs:opts.Opt.max_region_instrs snap fid)
             in
             List.iter
               (fun (region : Region.Rdesc.t) ->
                  arcs_covered := !arcs_covered + List.length region.r_arcs;
                  let region =
                    if opts.Opt.guard_relax then
                      stage "relax" "region" "Relax.run" (fun () ->
                          Region.Relax.run ~weight region)
                    else region
                  in
                  incr regions;
                  blocks := !blocks + List.length region.r_blocks;
                  let lw =
                    stage "lower" "hhir" "Lower.lower_region" (fun () ->
                        Hhir.Lower.lower_region eng.Eng.hunit ~func_id:fid
                          ~region ~mode:Hhir.Lower.Optimized ~opts:lopts)
                  in
                  let ir = lw.Hhir.Lower.lw_ir in
                  ir_lowered := !ir_lowered + ir_size ir;
                  stage "verify" "hhir" "Verify.verify" (fun () ->
                      Hhir.Verify.verify ir);
                  ignore
                    (stage "opt" "hhir_opt" "Pipeline.run" (fun () ->
                         Hhir_opt.Pipeline.run ~mode:Hhir.Lower.Optimized
                           ~opts:lopts ir));
                  ir_after := !ir_after + ir_size ir;
                  stage "verify" "hhir" "Verify.verify" (fun () ->
                      Hhir.Verify.verify ir);
                  let weights =
                    stage "prepare" "core" "Engine.weights_for" (fun () ->
                        Eng.weights_for ~snapshot:snap lw)
                  in
                  let prog =
                    stage "vlower" "vasm" "Vlower.lower" (fun () ->
                        Vasm.Vlower.lower ir ~weights)
                  in
                  let prog, sections =
                    stage "layout" "vasm" "Layout.run" (fun () ->
                        Vasm.Layout.run ~pgo:opts.Opt.pgo_layout prog)
                  in
                  let prog =
                    stage "layout" "vasm" "Jumpopt.run" (fun () ->
                        Vasm.Jumpopt.run prog)
                  in
                  let ra =
                    stage "regalloc" "vasm" "Regalloc.run" (fun () ->
                        Vasm.Regalloc.run prog ~nregs:opts.Opt.nregs)
                  in
                  vinstrs := !vinstrs + vasm_size ra.Vasm.Regalloc.ra_prog;
                  spills := !spills + ra.Vasm.Regalloc.ra_spilled;
                  let pr =
                    stage "prepare" "core" "Translation.prepare" (fun () ->
                        Core.Translation.prepare ~fid
                          ~srckey:(Region.Rdesc.entry region).b_start
                          ~kind:Core.Translation.KOptimized ~ra ~sections
                          ~entries:lw.Hhir.Lower.lw_entries)
                  in
                  bytes :=
                    !bytes + pr.Core.Translation.pr_hot_bytes
                    + pr.Core.Translation.pr_cold_bytes)
               formed)
          funcs);
    let us key = fi (Option.value (Hashtbl.find_opt ns key) ~default:0) /. 1e3 in
    ( !bytes,
      [ ("region.form_us", us "form"); ("region.relax_us", us "relax");
        ("hhir.lower_us", us "lower"); ("hhir.verify_us", us "verify");
        ("hhir_opt.us", us "opt"); ("vasm.vlower_us", us "vlower");
        ("vasm.layout_us", us "layout"); ("vasm.regalloc_us", us "regalloc");
        ("core.prepare_us", us "prepare");
        ("region.regions", fi !regions); ("region.blocks", fi !blocks);
        ("region.arc_coverage", ratio (fi !arcs_covered) (fi !arcs_total));
        ("hhir.instrs_lowered", fi !ir_lowered);
        ("hhir_opt.instrs_after", fi !ir_after);
        ("vasm.instrs", fi !vinstrs); ("vasm.spills", fi !spills);
        ("vasm.code_bytes", fi !bytes) ] )
  in
  let runs = List.init replays (fun _ -> one ()) in
  r.replay_ok <-
    List.for_all (fun (b, _) -> b = eng.Eng.opt_bytes) runs;
  if not r.replay_ok then
    Printf.eprintf "compile replay: %s bytes, engine opt_bytes %d\n"
      (String.concat "," (List.map (fun (b, _) -> string_of_int b) runs))
      eng.Eng.opt_bytes;
  r.replay <-
    List.map
      (fun (k, _) -> (k, median (List.map (fun (_, m) -> List.assoc k m) runs)))
      (snd (List.hd runs))

(* ------------------------------------------------------------------ *)
(* The three workload shapes                                           *)
(* ------------------------------------------------------------------ *)

(** One bring-up, timed as set-up: load → hhbbc → install → [warm] →
    retranslate_all (Region mode).  The previous engine is collected
    first, so each bring-up starts from the heap a fresh process would
    have; the first one of a traced run is followed by the compile replay. *)
let bring_up (r : run) (w : workload) ~budget ~warm ~first
  : Hhbc.Hunit.t * Eng.t =
  span "bench" "Gc.full_major" Gc.full_major;
  let t0 = now () in
  let u, eng = install_unit r w ~budget in
  ignore (serve_serial u eng warm);
  if w.w_mode = Opt.Region then retranslate r eng else record_compile r;
  end_bring_up r t0;
  if first && !trace_mode && w.w_mode = Opt.Region then replay r eng;
  (u, eng)

(** Steady: [setups] times over, a bring-up, an untimed priming pass that
    lets lazy compiles and the simulated caches settle, then passes over
    one seeded pool for a [setups]th of the measured time.  Spreading the
    set-ups across the run keeps a burst of host noise from landing on all
    of them. *)
let run_steady (r : run) (w : workload) ~seed ~seconds ~setups : Eng.t =
  let warm = draw ~seed ~stream:1 ~weights:production warmup_requests in
  let pool = draw ~seed ~stream:2 ~weights:production pool_size in
  let last = ref None in
  for k = 1 to setups do
    let u, eng = bring_up r w ~budget:None ~warm ~first:(k = 1) in
    ignore (serve_serial u eng pool);
    segment r w eng ~seconds:(seconds /. fi setups) (fun ~traced:_ ->
        let cycles, host = serve_serial u eng pool in
        (pool, cycles, host));
    last := Some eng
  done;
  Option.get !last

(** Restarts: each batch is one restart, the same bring-up the steady
    workloads time as set-up, then more requests on the optimized code.
    Every restart serves the same seeded stream. *)
let run_restarts (r : run) (w : workload) ~seed ~seconds : Eng.t =
  let warm = draw ~seed ~stream:1 ~weights:production warmup_requests in
  let post = draw ~seed ~stream:3 ~weights:production cold_post_requests in
  let reqs = Array.append warm post in
  let restart ~replay_after =
    span "bench" "Gc.full_major" Gc.full_major;
    let t0 = now () in
    let u, eng = install_unit r w ~budget:None in
    let before = read eng in
    let c1, h1 = serve_serial u eng warm in
    retranslate r eng;
    end_bring_up r t0;
    if replay_after then replay r eng;
    let c2, h2 = serve_serial u eng post in
    (eng, now () - t0, diff before (read eng),
     Array.append c1 c2, Array.append h1 h2)
  in
  (* the traced run replays the compile in an extra, unmeasured restart *)
  if !trace_mode then ignore (restart ~replay_after:true);
  let last = ref None in
  measure r w ~until:(now () + int_of_float (seconds *. 1e9))
    ~min_batches:(min_batches ()) (fun ~traced ->
        let eng, total, delta, cycles, host = restart ~replay_after:false in
        if not traced then r.restart_ns <- total :: r.restart_ns;
        if r.first_restart = [||] then r.first_restart <- cycles;
        add_measured r delta;
        last := Some eng;
        (reqs, cycles, host));
  Option.get !last

(** Churn: parallel bursts under a code budget; the mix flips every
    [bursts_per_mix] bursts and a lifecycle tick follows every burst.
    Each batch is one flip period.  Like Steady, the run is [setups]
    bring-ups, each measured for a [setups]th of the time; every one
    starts on freshly optimized code, so every segment sees the first
    flips' evictions, compactions and lazy compiles. *)
let run_churn (r : run) (w : workload) ~seed ~seconds ~setups : Eng.t =
  let warm = draw ~seed ~stream:1 ~weights:production warmup_requests in
  (* every burst is drawn on its own and so carries each endpoint's exact
     share: liveness scores near the eviction threshold then follow the
     mix, not how a random slice of it fell *)
  let phase ~stream ~weights =
    Array.concat
      (List.init bursts_per_mix (fun b ->
           draw ~seed ~stream:(stream + b) ~weights burst))
  in
  let reqs =
    Array.append (phase ~stream:100 ~weights:production)
      (phase ~stream:200 ~weights:shifted)
  in
  (* the budget: an uncapped bring-up's steady-state counted bytes plus
     4 KiB, so eviction holes press against it until compaction *)
  let budget =
    let sizing = { w with w_request_workers = 1; w_evict_threshold = 0 } in
    let u, eng = install_unit r sizing ~budget:None in
    ignore (serve_serial u eng warm);
    ignore
      (span "core" "Engine.retranslate_all" (fun () -> Eng.retranslate_all eng));
    Simcpu.Codecache.bytes_counted eng.Eng.cache + 4096
  in
  let period u eng ~traced =
    let cycles = ref [] and host = ref [] in
    for b = 0 to (2 * bursts_per_mix) - 1 do
      let burst_reqs = Array.sub reqs (b * burst) burst in
      let t0 = now () in
      let res =
        try Some (span "server" "Serving.run" (fun () -> Sv.run u eng burst_reqs))
        with _ -> None
      in
      let dt = now () - t0 in
      let outputs, c =
        match res with
        | Some res -> (res.Sv.sv_outputs, res.Sv.sv_cycles)
        | None -> (Array.make burst "", Array.make burst 0)
      in
      span "bench" "check" (fun () -> check burst_reqs outputs);
      cycles := c :: !cycles;
      host := (dt / burst) :: !host;
      let t1 = now () in
      ignore
        (span "core" "Engine.tc_lifecycle_tick" (fun () ->
             Eng.tc_lifecycle_tick eng));
      if not traced then begin
        r.burst_ns <- dt :: r.burst_ns;
        r.tick_ns <- (now () - t1) :: r.tick_ns
      end
    done;
    (reqs, Array.concat (List.rev !cycles), Array.of_list !host)
  in
  let last = ref None in
  for k = 1 to setups do
    let u, eng = bring_up r w ~budget:(Some budget) ~warm ~first:(k = 1) in
    segment r w eng ~seconds:(seconds /. fi setups) (period u eng);
    last := Some eng
  done;
  Option.get !last

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

(** name, unit: the end-to-end metrics, reported by the untraced run. *)
let end_to_end_metrics =
  [ ("req_per_s", "req/s"); ("host_p50_us", "us"); ("host_p90_us", "us");
    ("sim_cycles_per_req", "cycles"); ("sim_p50_cycles", "cycles");
    ("sim_p99_cycles", "cycles"); ("sim_open_p99_cycles", "cycles");
    ("setup_s", "s"); ("peak_heap_mb", "MiB") ]

(** name, unit: the per-layer metrics, reported by the traced run. *)
let per_layer_metrics =
  [ ("hhbc.load_ms", "ms"); ("hhbc.unit_instrs", "count");
    ("hhbbc.ms", "ms"); ("hhbbc.asserts", "count");
    ("hhbbc.rewrites", "count");
    ("interp.instrs_per_req", "count"); ("interp.cycle_share", "ratio");
    ("region.form_us", "us"); ("region.relax_us", "us");
    ("region.regions", "count"); ("region.blocks", "count");
    ("region.arc_coverage", "ratio");
    ("hhir.lower_us", "us"); ("hhir.verify_us", "us"); ("hhir_opt.us", "us");
    ("hhir.instrs_lowered", "count"); ("hhir_opt.instrs_after", "count");
    ("pass.simplify.changed", "count"); ("pass.load_elim.changed", "count");
    ("pass.gvn.changed", "count"); ("pass.store_elim.changed", "count");
    ("pass.rce.changed", "count"); ("pass.dce.changed", "count");
    ("pass.unreachable.changed", "count");
    ("vasm.vlower_us", "us"); ("vasm.layout_us", "us");
    ("vasm.regalloc_us", "us"); ("vasm.instrs", "count");
    ("vasm.spills", "count"); ("vasm.code_bytes", "bytes");
    ("core.prepare_us", "us"); ("core.retranslate_pause_ms", "ms");
    ("exec.instrs_per_req", "count"); ("jit.cycle_share", "ratio");
    ("dispatch.mono_hit_ratio", "ratio");
    ("dispatch.chain_miss_per_req", "count");
    ("guard.fail_per_req", "count"); ("link.follow_per_req", "count");
    ("exit.bind_per_req", "count");
    ("translate.live", "count"); ("translate.profiling", "count");
    ("translate.optimized", "count"); ("translate.rejected", "count");
    ("serving.translation_miss", "count");
    ("serving.interp_fallback", "count");
    ("lazy_translate.compiled", "count");
    ("lazy_translate.useful_ratio", "ratio"); ("lease.contended", "count");
    ("epoch.delta_publish", "count");
    ("tc.evicted", "count"); ("tc.evicted_bytes", "bytes");
    ("tc.compact_runs", "count"); ("lifecycle.tick_ms", "ms");
    ("tc.code_bytes", "bytes");
    ("codecache.main_bytes", "bytes"); ("codecache.holes_bytes", "bytes");
    ("icache.misses_per_kinstr", "count"); ("itlb.misses_per_kinstr", "count");
    ("heap.allocs_per_req", "count"); ("heap.refops_per_req", "count");
    ("heap.live_end", "count");
    ("gc.minor_words_per_req", "words"); ("gc.major_collections", "count");
    ("startup.restart_ms", "ms"); ("startup.requests_to_steady", "requests");
    ("serving.request_self_us", "us"); ("serving.host_p99_us", "us");
    ("serving.burst_ms", "ms"); ("serving.batch_iqr_pct", "%");
    ("trace.overhead_pct", "%") ]

(** The fast decile of per-batch values: the 10th percentile counted from
    the best end.  Noise on a shared host only ever slows a batch; this
    ignores it on up to nine batches in ten, yet does not rest on one
    lucky batch. *)
let fast_decile ~(higher : bool) (xs : float list) : float =
  let a = Array.of_list xs in
  Array.sort (fun x y -> if higher then compare y x else compare x y) a;
  if a = [||] then 0.0 else a.(Array.length a / 10)

(** End-to-end metrics, each with a note on what it rests on.  Host
    metrics take the fast decile of untraced batches.  Simulated metrics
    are medians over batches of per-batch values: single-worker batches
    repeat the same work, so the median is that batch's exact value
    however many batches fit in the time. *)
let end_to_end (r : run) (w : workload) : (string * float * string) list =
  let all = r.batches in
  let timed = List.filter (fun b -> not b.b_traced) all in
  let host i =
    fast_decile ~higher:false (List.map (fun b -> fi b.b_host.(i)) timed) /. 1e3
  in
  let med f = median (List.map f all) in
  let identical =
    match all with
    | b :: rest ->
      List.for_all
        (fun b' ->
           b'.b_weighted = b.b_weighted && b'.b_sim = b.b_sim
           && b'.b_open_p99 = b.b_open_p99)
        rest
    | [] -> true
  in
  let samples =
    if w.w_shape = Churn then
      Printf.sprintf "fast decile of %d batches of %d bursts, burst wall / %d"
        (List.length timed) (2 * bursts_per_mix) burst
    else
      Printf.sprintf "fast decile of %d batches of %d requests" (List.length timed)
        (match all with b :: _ -> b.b_requests | [] -> 0)
  in
  let sim_note =
    Printf.sprintf "median of %d batches (%s)" (List.length all)
      (if identical then "all equal" else "batches differ")
  in
  [ ("req_per_s",
     fast_decile ~higher:true
       (List.map (fun b -> fi b.b_requests /. (fi b.b_ns /. 1e9)) timed),
     samples);
    ("host_p50_us", host 0, samples);
    ("host_p90_us", host 1, samples);
    ("sim_cycles_per_req", med (fun b -> b.b_weighted),
     "endpoint-weighted, " ^ sim_note);
    ("sim_p50_cycles", med (fun b -> fi b.b_sim.(0)), sim_note);
    ("sim_p99_cycles", med (fun b -> fi b.b_sim.(1)), sim_note);
    ("sim_open_p99_cycles", med (fun b -> b.b_open_p99),
     Printf.sprintf "one arrival every %d cycles, %s" w.w_interval sim_note);
    ("setup_s", median_ns r.setup_ns /. 1e9,
     Printf.sprintf "median of %d set-ups" (List.length r.setup_ns));
    ("peak_heap_mb", r.peak_heap, "Gc top_heap_words after the first bring-up") ]

let per_layer (r : run) (eng : Eng.t) : (string * float) list =
  let m k = fi (List.assoc k r.measured) in
  let n = fi (List.fold_left (fun a b -> a + b.b_requests) 0 r.batches) in
  let per_req k = ratio (m k) n in
  let kinstr k = ratio (m k) (m "exec_instrs" /. 1e3) in
  let ms l = median_ns l /. 1e6 in
  let traced, timed = List.partition (fun b -> b.b_traced) r.batches in
  let ns_per_req bs = median (List.map (fun b -> fi b.b_ns /. fi b.b_requests) bs) in
  let tput = List.map (fun b -> fi b.b_requests /. fi b.b_ns) timed in
  let q1, q3 = quartiles tput in
  let cc = Simcpu.Codecache.section_bytes eng.Eng.cache in
  [ ("hhbc.load_ms", ms r.load_ns); ("hhbbc.ms", ms r.hhbbc_ns);
    ("interp.instrs_per_req", per_req "interp_instrs");
    ("interp.cycle_share", ratio (m "interp_cycles") (m "cycles"));
    ("core.retranslate_pause_ms", ms r.pause_ns);
    ("exec.instrs_per_req", per_req "exec_instrs");
    ("jit.cycle_share", ratio (m "jit_cycles") (m "cycles"));
    ("dispatch.mono_hit_ratio",
     ratio (m "dispatch.mono_hit")
       (m "dispatch.mono_hit" +. m "dispatch.mono_miss"));
    ("dispatch.chain_miss_per_req", per_req "dispatch.chain_miss");
    ("guard.fail_per_req", per_req "guard.fail");
    ("link.follow_per_req", per_req "link.follow");
    ("exit.bind_per_req", per_req "exit.bind");
    ("serving.translation_miss", m "serving.translation_miss");
    ("serving.interp_fallback", m "serving.interp_fallback");
    ("lazy_translate.compiled", m "lazy_translate.compiled");
    ("lazy_translate.useful_ratio",
     ratio (m "lazy_translate.entered") (m "lazy_translate.compiled"));
    ("lease.contended", m "lease.contended");
    ("epoch.delta_publish", m "epoch.delta_publish");
    ("tc.evicted", m "tc.evicted"); ("tc.evicted_bytes", m "tc.evicted_bytes");
    ("tc.compact_runs", m "tc.compact_runs");
    ("lifecycle.tick_ms", ms r.tick_ns);
    ("tc.code_bytes", fi (Eng.code_bytes eng));
    ("codecache.main_bytes", fi (cc Simcpu.Codecache.Main));
    ("codecache.holes_bytes", fi (Simcpu.Codecache.holes_bytes eng.Eng.cache));
    ("icache.misses_per_kinstr", kinstr "icache_misses");
    ("itlb.misses_per_kinstr", kinstr "itlb_misses");
    ("heap.allocs_per_req", per_req "heap_allocs");
    ("heap.refops_per_req", per_req "refops");
    ("heap.live_end", fi (Runtime.Heap.stats ()).Runtime.Heap.live);
    ("gc.minor_words_per_req", per_req "minor_words");
    ("gc.major_collections", m "major_collections");
    ("startup.restart_ms", ms r.restart_ns);
    ("startup.requests_to_steady",
     (if r.first_restart = [||] then 0.0
      else
        fi (Server.Startup.requests_to_steady r.first_restart
              ~window:steady_window)));
    ("serving.request_self_us",
     ratio (fi r.server_ns /. 1e3)
       (fi (List.fold_left (fun a b -> a + b.b_requests) 0 traced)));
    ("serving.host_p99_us",
     fast_decile ~higher:false (List.map (fun b -> fi b.b_host.(2)) timed) /. 1e3);
    ("serving.burst_ms", ms r.burst_ns);
    ("serving.batch_iqr_pct", 100.0 *. ratio (q3 -. q1) (median tput));
    ("trace.overhead_pct",
     100.0 *. (ratio (ns_per_req traced) (ns_per_req timed) -. 1.0)) ]
  @ List.map (fun (k, v) -> (k, fi v)) r.compile
  @ r.unit_stats @ r.replay

(* ------------------------------------------------------------------ *)
(* Trace output                                                        *)
(* ------------------------------------------------------------------ *)

let write_spans (path : string) : unit =
  let oc = open_out path in
  List.iter
    (fun s ->
       Printf.fprintf oc
         "{\"id\":%d,\"parent\":%d,\"req\":%d,\"layer\":%S,\"name\":%S,\
          \"start_ns\":%d,\"end_ns\":%d,\"cycles\":%d}\n"
         s.id s.parent s.req s.layer s.name s.start_ns s.end_ns s.cycles)
    (List.rev !spans);
  close_out oc

(** Per-layer calls, total and self time (span minus its children), with
    the simulated cycles charged inside each layer's own time.  Returns
    the share of the traced wall the layers account for. *)
let print_layer_table () : float =
  let child_ns = Hashtbl.create 1024 and child_cycles = Hashtbl.create 1024 in
  let bump tbl k v =
    Hashtbl.replace tbl k (v + Option.value (Hashtbl.find_opt tbl k) ~default:0)
  in
  List.iter
    (fun s ->
       bump child_ns s.parent (s.end_ns - s.start_ns);
       bump child_cycles s.parent s.cycles)
    !spans;
  let layers = Hashtbl.create 16 in
  let root = ref 0 and root_self = ref 0 and untraced_ns = ref 0 in
  List.iter
    (fun s ->
       let dur = s.end_ns - s.start_ns in
       let self = dur - Option.value (Hashtbl.find_opt child_ns s.id) ~default:0 in
       let cyc =
         s.cycles - Option.value (Hashtbl.find_opt child_cycles s.id) ~default:0
       in
       if s.parent = 0 then (root := dur; root_self := self)
       else if s.layer = "untraced" then untraced_ns := !untraced_ns + dur
       else begin
         let calls, total, self', c =
           Option.value (Hashtbl.find_opt layers s.layer) ~default:(0, 0, 0, 0)
         in
         Hashtbl.replace layers s.layer
           (calls + 1, total + dur, self' + self, c + max 0 cyc)
       end)
    !spans;
  let wall = !root - !untraced_ns in
  Printf.printf "\nper-layer time of the traced work (untraced batches excluded)\n";
  Printf.printf "%-12s %9s %12s %12s %7s %14s\n" "layer" "calls" "total ms"
    "self ms" "self%" "sim Mcycles";
  let rows =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) layers []
    |> List.sort (fun (_, (_, _, a, _)) (_, (_, _, b, _)) -> compare b a)
  in
  List.iter
    (fun (layer, (calls, total, self, cyc)) ->
       Printf.printf "%-12s %9d %12.1f %12.1f %6.1f%% %14.2f\n" layer calls
         (fi total /. 1e6) (fi self /. 1e6)
         (100.0 *. ratio (fi self) (fi wall)) (fi cyc /. 1e6))
    rows;
  Printf.printf "%-12s %9s %12.1f %12.1f %6.1f%%\n" "unattributed" ""
    (fi wall /. 1e6) (fi !root_self /. 1e6)
    (100.0 *. ratio (fi !root_self) (fi wall));
  1.0 -. ratio (fi !root_self) (fi wall)

(** Inside a request the suite cannot time vm, core and simcpu apart; the
    server layer's self time is split by the measured phase's simulated
    cycle and instruction shares instead, and labelled as an estimate. *)
let print_request_split (r : run) : unit =
  let m k = fi (List.assoc k r.measured) in
  let server_ns =
    List.fold_left
      (fun a s -> if s.layer = "server" then a + s.end_ns - s.start_ns else a)
      0 !spans
  in
  let interp = ratio (m "interp_cycles") (m "cycles") in
  let instrs = m "interp_instrs" +. m "exec_instrs" in
  Printf.printf
    "server self time split by share (estimate, not timed): by sim cycles \
     vm %.1f ms / core+simcpu %.1f ms; by instructions vm %.1f ms / \
     simcpu %.1f ms\n"
    (fi server_ns /. 1e6 *. interp)
    (fi server_ns /. 1e6 *. (1.0 -. interp))
    (fi server_ns /. 1e6 *. ratio (m "interp_instrs") instrs)
    (fi server_ns /. 1e6 *. ratio (m "exec_instrs") instrs)

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let json_metrics (units : (string * string) list) (values : (string * float) list)
  : string =
  String.concat ", "
    (List.map
       (fun (name, unit_) ->
          let v = Option.value (List.assoc_opt name values) ~default:0.0 in
          let v = if Float.is_finite v then v else 0.0 in
          Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit_)
       units)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 in
  let trace = ref 0 and smoke = ref false and print_digests = ref false in
  let usage =
    "suite.exe --workload W [--seed S] [--seconds T] [--trace 0|1] [--smoke]\n\
     suite.exe --print-digests"
  in
  Arg.parse
    [ ("--workload", Arg.Set_string workload,
       " steady_region | steady_interp | cold_start | churn_rw2");
      ("--seed", Arg.Set_int seed, " input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, " measured time (default 20)");
      ("--trace", Arg.Set_int trace, " 1 = traced run, per-layer metrics");
      ("--smoke", Arg.Set smoke, " 1/50 scale: a 50th of the time, one set-up");
      ("--print-digests", Arg.Set print_digests,
       " print the oracle's per-endpoint digests (expected_outputs.txt)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  (match List.filter (fun v -> Sys.getenv_opt v <> None) engine_env with
   | [] -> ()
   | set ->
     Printf.eprintf "refusing to run: engine knob(s) set in the environment: %s\n"
       (String.concat ", " set);
     exit 2);
  if !print_digests then begin
    List.iter print_endline (digest_lines (compute_oracle ()));
    exit 0
  end;
  let w =
    match List.find_opt (fun w -> w.w_name = !workload) workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S\n%s\n" !workload usage;
      exit 2
  in
  if !smoke then seconds := !seconds /. 50.0;
  let setups = if !smoke then 1 else 11 in
  trace_mode := !trace = 1;
  tracing := !trace_mode;
  let r = fresh_run () in
  let digests_ok = ref false in
  let eng =
    span "bench" "suite" (fun () ->
        oracle := span "vm" "oracle" compute_oracle;
        digests_ok :=
          (try read_lines expected_path = digest_lines !oracle
           with Sys_error _ -> false);
        match w.w_shape with
        | Steady -> run_steady r w ~seed:!seed ~seconds:!seconds ~setups
        | Restarts -> run_restarts r w ~seed:!seed ~seconds:!seconds
        | Churn -> run_churn r w ~seed:!seed ~seconds:!seconds ~setups)
  in
  let live_end = (Runtime.Heap.stats ()).Runtime.Heap.live in
  Printf.printf "workload %s  seed %d  %.1f s measured%s\n" w.w_name !seed
    !seconds (if !trace_mode then "  (traced run)" else "");
  let e2e = end_to_end r w in
  List.iter
    (fun (name, v, note) ->
       Printf.printf "%-22s %16.4f %-7s %s\n" name v
         (List.assoc name end_to_end_metrics) note)
    e2e;
  let layer_values = per_layer r eng in
  if !trace_mode then begin
    let path = Printf.sprintf "perfbench/out/%s.trace.jsonl" w.w_name in
    (try
       if not (Sys.file_exists "perfbench/out") then Sys.mkdir "perfbench/out" 0o755;
       write_spans path;
       Printf.printf "\nwrote %d spans to %s\n" (List.length !spans) path
     with Sys_error e -> Printf.eprintf "cannot write spans: %s\n" e);
    let covered = print_layer_table () in
    Printf.printf "layers account for %.1f%% of the traced wall\n"
      (100.0 *. covered);
    print_request_split r;
    Printf.printf "\n";
    List.iter
      (fun (name, unit_) ->
         Printf.printf "%-30s %16.4f %s\n" name
           (Option.value (List.assoc_opt name layer_values) ~default:0.0)
           unit_)
      per_layer_metrics
  end;
  let errors =
    (if !failed > 0 then [ Printf.sprintf "%d wrong outputs" !failed ] else [])
    @ (if live_end <> 0 then [ Printf.sprintf "heap.live_end = %d" live_end ]
       else [])
    @ (if not !digests_ok then [ "oracle differs from " ^ expected_path ] else [])
    @ if not r.replay_ok then [ "compile replay bytes <> opt_bytes" ] else []
  in
  List.iter (Printf.eprintf "ERROR: %s\n") errors;
  Printf.printf "error_rate %.6f (%d of %d requests)\n"
    (ratio (fi !failed) (fi !attempted)) !failed !attempted;
  let metrics =
    if !trace_mode then json_metrics per_layer_metrics layer_values
    else
      json_metrics end_to_end_metrics (List.map (fun (k, v, _) -> (k, v)) e2e)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (errors = []) !attempted !failed metrics;
  exit (if errors = [] then 0 else 1)
