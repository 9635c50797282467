(** Request serving: fan a deterministic request mix across
    [request_workers] domains over one shared translation cache.

    HHVM serves every web request on its own thread while all threads
    execute out of a single shared code cache (§2, §5).  This module
    reproduces that shape with OCaml domains, through one request loop
    for every worker count:

    - every domain dispatches through its own context in [Core.Engine]:
      a pinned {e epoch} (immutable srckey tables and chains, swapped
      with one atomic store), its machine, its monomorphic caches.  With
      one worker the loop runs inline on the calling domain's context;
      with more, each worker domain gets a fresh one;
    - each request adopts the latest epoch at its boundary
      ([Engine.begin_request]), so a concurrent retranslate-all is seen
      only at request boundaries: in-flight requests finish on the epoch
      they started with, never on a half-published table;
    - a miss goes through the translation queue and the write lease; the
      lease winner compiles, publishes an epoch delta and enters its code
      at once.  One worker always wins, so it compiles inline;
    - profile counters accumulate per domain ([Vm.Prof.install_local])
      and fold into the canonical profile at the retranslate-all
      trigger, and vmstats / heap / ledger / machine counters are
      absorbed at the join, so process-wide totals are exact for any
      schedule.

    Determinism: endpoints are pure functions of their integer argument,
    requests are claimed from an atomic cursor into {e slot-per-request}
    output and cycle arrays, and the aggregate hash folds outputs in
    request-index order — so per-request outputs and the output hash are
    bit-identical for any worker count and any schedule.

    Request-level observability rides the same boundaries: when spans
    are on ([--spans]), every request records an [Obs.Span] timeline
    (cycles from ledger deltas at the request boundary — nothing on the
    dispatch hot path) and the profiler attributes its cycles; each
    domain buffers its own spans and the join merges them in request-
    slot order, the canonical order for any schedule.  {!measure} runs
    the same loop on one fresh context, and its serving report is
    byte-identical for any (jit x request) worker configuration. *)

open Workloads.Endpoints

type request = {
  rq_ep : endpoint;
  rq_arg : int;
}

type result = {
  sv_outputs : string array;     (** per-request output, request order *)
  sv_output_hash : int;          (** fold of (index, output), index order *)
  sv_cycles : int array;         (** simulated cycles charged per request *)
  sv_wall_s : float;             (** wall-clock for the serving burst *)
  sv_workers : int;              (** worker count actually used *)
  sv_spans : Obs.Span.span array;
  (** per-request phase timelines, merged in request-slot order; empty
      unless spans were enabled for the burst *)
}

(** One endpoint request: the entry function's output followed by its
    return value, rendered as a string. *)
let call_endpoint (u : Hhbc.Hunit.t) (ep : endpoint) (arg : int) : string =
  let r, out =
    Vm.Output.capture
      (fun () ->
         Vm.Interp.call_by_name u ep.ep_entry [ Runtime.Value.VInt arg ])
  in
  let s = Runtime.Value.to_string_val r in
  Runtime.Heap.decref r;
  out ^ s

(** The endpoint unit as a server loads it: parsed, emitted, and run
    through hhbbc's assertion insertion and bytecode optimization. *)
let load_unit () : Hhbc.Hunit.t =
  let u = Vm.Loader.load Workloads.Endpoints.source in
  ignore (Hhbbc.Assert_insert.run u);
  ignore (Hhbbc.Bc_opt.run u);
  u

(* [rounds] passes over the endpoint list; endpoint [i] is requested
   [reps i ep] times per pass, request [k] of it in pass [r] taking
   argument [base + 131 * salt + 3 * r + k]. *)
let passes ~base ~salt ~rounds (reps : int -> endpoint -> int)
  : request array =
  let acc = ref [] in
  for round = 0 to rounds - 1 do
    List.iteri
      (fun i ep ->
         for k = 0 to reps i ep - 1 do
           acc := { rq_ep = ep; rq_arg = base + salt * 131 + round * 3 + k }
                  :: !acc
         done)
      endpoints
  done;
  Array.of_list (List.rev !acc)

(** Deterministic weighted request mix, the shape of Perflab's warmup
    phase ([mix ~base:0]): requests interleave across endpoints
    (consecutive requests run different code, which is what makes
    i-cache/I-TLB locality matter), hotter endpoints appear proportionally
    more often (one repetition per 10 weight, at least one), and
    arguments are a pure function of (base, salt, round, repetition). *)
let mix ?(base = 1000) ?(salt = 0) ~(rounds : int) () : request array =
  passes ~base ~salt ~rounds (fun _ ep -> max 1 (ep.ep_weight / 10))

(** The same deterministic construction with the endpoint popularity
    reversed — the traffic-shift phase of the TC-lifecycle stress.  Each
    endpoint is requested with the weight of its mirror in the endpoint
    list, with no minimum: a formerly hot endpoint whose mirrored weight
    rounds to zero repetitions disappears from the mix entirely, so its
    optimized translations stop accumulating execs and decay into
    eviction candidates. *)
let mix_shifted ?(salt = 0) ~(rounds : int) () : request array =
  let eps = Array.of_list endpoints in
  let k = Array.length eps in
  passes ~base:1000 ~salt ~rounds (fun i _ -> eps.(k - 1 - i).ep_weight / 10)

let output_hash (outputs : string array) : int =
  let h = ref 0 in
  Array.iteri (fun i out -> h := !h lxor Hashtbl.hash (i, out)) outputs;
  !h

(* Per-request simulated-cycle distribution for the burst; reset at burst
   start so percentiles measure the burst, not warmup residue. *)
let h_request_cycles = Obs.Vmstats.histogram "serving.request_cycles"

(* One gauge-snapshot line every SNAPSHOT_INTERVAL completed requests. *)
let emit_snapshot (eng : Core.Engine.t) (done_ : int) : unit =
  if Obs.Snapshot.due done_ then begin
    let ep = Atomic.get eng.Core.Engine.published in
    Obs.Snapshot.emit
      [ ("req_done", done_);
        ("queue_depth", Core.Translate_queue.depth ());
        ("lease_held", if Core.Translate_queue.lease_held () then 1 else 0);
        ("tc_bytes", Core.Engine.code_bytes eng);
        ("epoch", ep.Core.Engine.ep_seq);
        ("generation", ep.Core.Engine.ep_gen) ]
  end

(** Serve one request slot: span/profiler bracketing, epoch adoption,
    the endpoint call, per-request cycle accounting, and the completion
    hook.  [post] is called once after the slot's output is recorded and
    returns the burst trigger to run (at most once per burst) — its
    cycles are attributed to the span's retranslate-pause phase, since
    the triggering request is the one that exposes the pause. *)
let serve_request (u : Hhbc.Hunit.t) (eng : Core.Engine.t)
    ~(outputs : string array) ~(cycles : int array)
    ~(post : unit -> (unit -> unit) option)
    (requests : request array) (slot : int) : unit =
  let rq = requests.(slot) in
  let spans_on = Obs.Span.on () in
  let prof_on = Obs.Profiler.on () in
  let a = Runtime.Ledger.acct () in
  let c0 = a.Runtime.Ledger.a_cycles in
  let i0 = a.Runtime.Ledger.a_interp in
  let j0 = a.Runtime.Ledger.a_jit in
  if spans_on then
    Obs.Span.begin_request ~slot ~label:rq.rq_ep.ep_name;
  if prof_on then Obs.Profiler.begin_request ~root:rq.rq_ep.ep_name;
  (* adopt the latest epoch inside the span window, so adoptions count
     against the request that performed them *)
  Core.Engine.begin_request eng;
  let out = call_endpoint u rq.rq_ep rq.rq_arg in
  let dc = a.Runtime.Ledger.a_cycles - c0 in
  cycles.(slot) <- dc;
  outputs.(slot) <- out;
  Obs.Vmstats.observe h_request_cycles dc;
  if spans_on then begin
    Obs.Span.add Obs.Span.Jit (a.Runtime.Ledger.a_jit - j0);
    Obs.Span.add Obs.Span.Interp (a.Runtime.Ledger.a_interp - i0)
  end;
  (* close attribution before the trigger: a retranslate-all is burst
     maintenance, not part of this request's serving cost *)
  if prof_on then Obs.Profiler.end_request ~total:dc;
  (match post () with
   | Some fn ->
     if spans_on then begin
       let p0 = a.Runtime.Ledger.a_cycles in
       fn ();
       Obs.Span.add Obs.Span.RetransPause
         (a.Runtime.Ledger.a_cycles - p0)
     end
     else fn ()
   | None -> ());
  if spans_on then Obs.Span.end_request ~total:dc

(* The completion hook [serve_request] calls after each request: count
   it, emit a due snapshot, run [each], and hand back the trigger once
   the count reaches it (on whichever domain gets there first). *)
let completion (eng : Core.Engine.t) ?trigger ?each ()
  : unit -> (unit -> unit) option =
  let completed = Atomic.make 0 in
  let fired = Atomic.make false in
  fun () ->
    let done_ = 1 + Atomic.fetch_and_add completed 1 in
    emit_snapshot eng done_;
    (match each with Some f -> f done_ | None -> ());
    match trigger with
    | Some (at, fn) when done_ >= at ->
      if Atomic.compare_and_set fired false true then Some fn else None
    | _ -> None

(* Everything a joined worker hands back for the serial merge. *)
type worker_report = {
  wr_stats : Obs.Vmstats.store;
  wr_machine : Core.Exec.machine option;
  wr_ledger : Runtime.Ledger.acct;    (* cycles, heap counts, instrs *)
  wr_spans : Obs.Span.span list;
  wr_prof : (string * int) list;
}

(* Burst start, for every worker count: burst-scoped percentiles and
   spans, and an empty translation queue (the quiescent point its reset
   contract requires). *)
let start_burst () =
  Obs.Vmstats.reset_histogram h_request_cycles;
  Obs.Span.reset_local ();
  Core.Translate_queue.reset ()

(** The request loop every serving domain runs: claim the next request
    slot from [next] and serve it until the requests run out, flushing
    the domain's profile increments at each boundary (a no-op on the
    main profile). *)
let serve_loop (u : Hhbc.Hunit.t) (eng : Core.Engine.t) ~outputs ~cycles
    ~post ~(next : int Atomic.t) (requests : request array) : unit =
  let n = Array.length requests in
  let rec loop () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      serve_request u eng ~outputs ~cycles ~post requests i;
      Vm.Prof.flush_local ();
      loop ()
    end
  in
  loop ()

(** Serve [requests] and return per-request outputs/cycles plus the
    aggregate hash.  [workers] defaults to the engine's resolved
    [request_workers] option.  [trigger = (n, fn)] runs [fn] exactly once,
    on whichever domain completes the [n]th request — the hook the stress
    tests use to fire [Engine.retranslate_all] mid-burst.  [each n] runs
    after the [n]th completed request, before its trigger, on the domain
    that served it: the startup experiments' per-request hook. *)
let run ?workers ?trigger ?each (u : Hhbc.Hunit.t) (eng : Core.Engine.t)
    (requests : request array) : result =
  let workers =
    match workers with
    | Some w -> max 1 w
    | None -> max 1 eng.Core.Engine.opts.Core.Jit_options.request_workers
  in
  let n = Array.length requests in
  let outputs = Array.make n "" in
  let cycles = Array.make n 0 in
  start_burst ();
  let post = completion eng ?trigger ?each () in
  let next = Atomic.make 0 in
  let t0 = Unix.gettimeofday () in
  let spans =
    if workers = 1 then begin
      serve_loop u eng ~outputs ~cycles ~post ~next requests;
      Obs.Profiler.absorb (Obs.Profiler.take ());
      Obs.Span.merge [ Obs.Span.take () ]
    end
    else begin
      (* Fan-out.  Freeze string interning (workers may intern novel
         constants); every per-domain counter family accumulates on its
         worker's domain until the join. *)
      Hhbc.Hunit.freeze_interning true;
      let worker () : worker_report =
        Core.Engine.enter_serving eng;
        Vm.Prof.install_local ();
        serve_loop u eng ~outputs ~cycles ~post ~next requests;
        Vm.Prof.uninstall_local ();
        let machine = Core.Engine.exit_serving () in
        { wr_stats = Obs.Vmstats.local ();
          wr_machine = machine;
          wr_ledger = Runtime.Ledger.acct ();
          wr_spans = Obs.Span.take ();
          wr_prof = Obs.Profiler.take () }
      in
      (* Dedicated drainer domain, spawned for every parallel
         lazy-translation burst.  It competes for the CAS write lease
         with the serve workers' opportunistic drains; whoever wins
         compiles.  It guarantees that a lease loser's request is
         compiled however many siblings are serving, even at two
         request workers, where a loser has no sibling left to drain for
         it.  Compile cycles it charges land on its own ledger account —
         background compilation, off every request's measured cost, like
         HHVM's JIT worker threads. *)
      let stop_drainer = Atomic.make false in
      let drainer =
        if eng.Core.Engine.opts.Core.Jit_options.lazy_translate then
          Some
            (Domain.spawn (fun () ->
                 (* the drainer serves no requests: its compile cycles are
                    attributed under a "background" root, not a span *)
                 if Obs.Profiler.on () then
                   Obs.Profiler.begin_request ~root:"background";
                 Core.Jit_worker.drain_loop ~stop:stop_drainer
                   ~drain:(fun () -> Core.Engine.drain_translation_queue eng);
                 { wr_stats = Obs.Vmstats.local ();
                   wr_machine = None;
                   wr_ledger = Runtime.Ledger.acct ();
                   wr_spans = [];
                   wr_prof = Obs.Profiler.take () }))
        else None
      in
      let reports =
        Array.map Domain.join
          (Array.init workers (fun _ -> Domain.spawn worker))
      in
      Atomic.set stop_drainer true;
      let reports =
        match drainer with
        | Some d -> Array.append reports [| Domain.join d |]
        | None -> reports
      in
      Hhbc.Hunit.freeze_interning false;
      (* Serial merge: fold every worker's counters into the main domain's
         so process-wide totals are exact regardless of schedule. *)
      Array.iter
        (fun r ->
           Obs.Vmstats.absorb r.wr_stats;
           Option.iter (Core.Engine.merge_machine eng) r.wr_machine;
           Runtime.Ledger.absorb r.wr_ledger;
           Obs.Profiler.absorb r.wr_prof)
        reports;
      (* profile increments flushed by workers but not yet folded into the
         canonical profile (no retranslate fired) are merged now *)
      Vm.Prof.merge_pending ();
      (* the burst's end is the calling domain's request boundary *)
      Core.Engine.adopt_here eng;
      Obs.Span.merge
        (Array.to_list (Array.map (fun r -> r.wr_spans) reports))
    end
  in
  let wall = Unix.gettimeofday () -. t0 in
  { sv_outputs = outputs;
    sv_output_hash = output_hash outputs;
    sv_cycles = cycles;
    sv_wall_s = wall;
    sv_workers = workers;
    sv_spans = spans }

(** Bring a fresh engine up the way a server starts: load the unit,
    install with [opts], serve [warmup] on the calling domain, then
    retranslate-all in Region mode. *)
let bring_up ?opts ~(warmup : request array) () : Hhbc.Hunit.t * Core.Engine.t =
  let u = load_unit () in
  let eng = Core.Engine.install ?opts u in
  ignore (run ~workers:1 u eng warmup);
  if eng.Core.Engine.opts.Core.Jit_options.mode = Core.Jit_options.Region then
    ignore (Core.Engine.retranslate_all eng);
  (u, eng)

(* ------------------------------------------------------------------ *)
(* The deterministic measured burst and its serving report             *)
(* ------------------------------------------------------------------ *)

type measured = {
  me_result : result;
  me_profile : (string * int) list;
  (** merged cycle attribution, folded-stack keys, sorted *)
  me_profile_total : int;
  (** sum over [me_profile]; equals the sum of [sv_cycles] exactly *)
}

(** The deterministic measured burst behind [--serving-report]: the
    request loop of {!run} on one fresh dispatch context (new machine,
    empty mono caches, the latest epoch), requests in slot order, with
    spans and the profiler forced on.

    Why this is byte-identical for any (jit x request) worker
    configuration: parallel-burst per-request cycles are inherently
    schedule-dependent (which requests interp vs enter lazily-compiled
    code depends on when epoch deltas land; per-domain i-cache state is
    history-dependent), so a report measured over a parallel burst
    cannot be.  The measured burst removes the schedule: one domain, a
    fresh context, requests served in slot order, the lease always
    uncontended, and [trigger] fired at a deterministic completed count.
    [jit_workers] only affects the retranslate-all publish, which is
    deterministic by construction, and [request_workers] never enters
    the measurement — so the report, the span log and the folded profile
    are all bit-stable.  (DESIGN.md §10 carries the full argument.) *)
let measure ?trigger (u : Hhbc.Hunit.t) (eng : Core.Engine.t)
    (requests : request array) : measured =
  let n = Array.length requests in
  let outputs = Array.make n "" in
  let cycles = Array.make n 0 in
  let s0 = !Obs.Span.enabled and p0 = !Obs.Profiler.enabled in
  Obs.Span.enabled := true;
  Obs.Profiler.enabled := true;
  Obs.Profiler.reset ();
  start_burst ();
  let post = completion eng ?trigger () in
  let t0 = Unix.gettimeofday () in
  Core.Engine.enter_serving eng;
  Fun.protect
    ~finally:(fun () ->
        Option.iter (Core.Engine.merge_machine eng)
          (Core.Engine.exit_serving ()))
    (fun () ->
       serve_loop u eng ~outputs ~cycles ~post ~next:(Atomic.make 0)
         requests);
  let wall = Unix.gettimeofday () -. t0 in
  let spans = Obs.Span.merge [ Obs.Span.take () ] in
  Obs.Profiler.absorb (Obs.Profiler.take ());
  let profile = Obs.Profiler.folded_entries () in
  let profile_total = Obs.Profiler.folded_total () in
  Obs.Span.enabled := s0;
  Obs.Profiler.enabled := p0;
  { me_result =
      { sv_outputs = outputs;
        sv_output_hash = output_hash outputs;
        sv_cycles = cycles;
        sv_wall_s = wall;
        sv_workers = 1;
        sv_spans = spans };
    me_profile = profile;
    me_profile_total = profile_total }

(** Exact nearest-rank percentile over a sorted sample array (the report
    keeps every per-request cycle count, so no estimation is needed —
    and integer results keep the report byte-stable). *)
let percentile_exact (sorted : int array) (p : float) : int =
  let n = Array.length sorted in
  if n = 0 then 0
  else begin
    let r = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(min (n - 1) (max 0 (r - 1)))
  end

(** Endpoint-weighted mean cycles/request (the bench's serving metric). *)
let weighted_cycles (requests : request array) (cycles : int array) : float =
  let acc = Hashtbl.create 16 in
  Array.iteri
    (fun i (rq : request) ->
       let name = rq.rq_ep.ep_name in
       let c, k = Option.value (Hashtbl.find_opt acc name) ~default:(0, 0) in
       Hashtbl.replace acc name (c + cycles.(i), k + 1))
    requests;
  let wsum, csum =
    List.fold_left
      (fun (ws, cs) (ep : endpoint) ->
         match Hashtbl.find_opt acc ep.ep_name with
         | None -> (ws, cs)
         | Some (c, k) ->
           (ws + ep.ep_weight,
            cs +. (float_of_int ep.ep_weight
                   *. (float_of_int c /. float_of_int k))))
      (0, 0.0) endpoints
  in
  if wsum = 0 then 0.0 else csum /. float_of_int wsum

(** The serving report as JSON: request-cycle percentiles (exact
    nearest-rank over the per-request samples, plus the log2-histogram
    estimator for comparison), per-phase breakdowns from the merged span
    log, per-endpoint latency, and the profile's sum check.  Emits only
    integers, fixed-precision floats and identifier strings — never a
    brace inside a string — so the bench's baseline brace-scanner and
    byte-equality comparisons both hold. *)
let report_json (requests : request array) (m : measured) : string =
  let r = m.me_result in
  let n = Array.length r.sv_cycles in
  let total = Array.fold_left ( + ) 0 r.sv_cycles in
  let sorted = Array.copy r.sv_cycles in
  Array.sort compare sorted;
  let mean = if n = 0 then 0.0 else float_of_int total /. float_of_int n in
  (* the log2-bucket estimator, fed independently of the vmstats knob so
     the report never depends on whether stats were on *)
  let h = Obs.Vmstats.new_dist "request_cycles" in
  Array.iter (Obs.Vmstats.observe_record h) r.sv_cycles;
  let phase_cycles = Array.make Obs.Span.nphases 0 in
  let phase_counts = Array.make Obs.Span.nphases 0 in
  Array.iter
    (fun (sp : Obs.Span.span) ->
       for i = 0 to Obs.Span.nphases - 1 do
         phase_cycles.(i) <- phase_cycles.(i) + sp.Obs.Span.sp_cycles.(i);
         phase_counts.(i) <- phase_counts.(i) + sp.Obs.Span.sp_counts.(i)
       done)
    r.sv_spans;
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"schema\": \"serving-report/1\",\n";
  add "  \"requests\": %d,\n" n;
  add "  \"total_cycles\": %d,\n" total;
  add "  \"weighted_cycles_per_req\": %.1f,\n"
    (weighted_cycles requests r.sv_cycles);
  add "  \"output_hash\": %d,\n" r.sv_output_hash;
  add "  \"request_cycles\": { \"p50\": %d, \"p95\": %d, \"p99\": %d, \
       \"max\": %d, \"mean\": %.1f },\n"
    (percentile_exact sorted 50.0) (percentile_exact sorted 95.0)
    (percentile_exact sorted 99.0)
    (if n = 0 then 0 else sorted.(n - 1))
    mean;
  add "  \"request_cycles_log2_estimate\": { \"p50\": %.1f, \"p95\": %.1f, \
       \"p99\": %.1f, \"max\": %d },\n"
    (Obs.Vmstats.percentile h 50.0) (Obs.Vmstats.percentile h 95.0)
    (Obs.Vmstats.percentile h 99.0) (Obs.Vmstats.histogram_max h);
  add "  \"phases\": {\n";
  List.iteri
    (fun i ph ->
       let idx = Obs.Span.phase_index ph in
       add "    \"%s\": { \"count\": %d, \"cycles\": %d }%s\n"
         (Obs.Span.phase_name ph) phase_counts.(idx) phase_cycles.(idx)
         (if i = Obs.Span.nphases - 1 then "" else ","))
    Obs.Span.phases;
  add "  },\n";
  add "  \"profile\": { \"entries\": %d, \"total_cycles\": %d },\n"
    (List.length m.me_profile) m.me_profile_total;
  add "  \"per_endpoint\": {\n";
  let eps =
    List.filter
      (fun (ep : endpoint) ->
         Array.exists (fun rq -> rq.rq_ep.ep_name = ep.ep_name) requests)
      endpoints
  in
  List.iteri
    (fun i (ep : endpoint) ->
       let acc = ref [] in
       Array.iteri
         (fun j rq ->
            if rq.rq_ep.ep_name = ep.ep_name then
              acc := r.sv_cycles.(j) :: !acc)
         requests;
       let cs = Array.of_list (List.rev !acc) in
       Array.sort compare cs;
       let k = Array.length cs in
       let tot = Array.fold_left ( + ) 0 cs in
       add "    \"%s\": { \"requests\": %d, \"total_cycles\": %d, \
            \"p50\": %d, \"p95\": %d, \"p99\": %d, \"max\": %d }%s\n"
         ep.ep_name k tot
         (percentile_exact cs 50.0) (percentile_exact cs 95.0)
         (percentile_exact cs 99.0) (if k = 0 then 0 else cs.(k - 1))
         (if i = List.length eps - 1 then "" else ","))
    eps;
  add "  }\n";
  add "}";
  Buffer.contents buf
