(** Startup / warmup simulation (paper Fig. 9 and §6.2).

    Simulates a web server resuming production traffic after a restart:
    requests are served continuously; JITed code accumulates; after the
    global profiling trigger fires, retranslate-all runs on simulated
    background threads (serving continues on profiling code meanwhile), and
    the optimized translations are then published.

    The time axis is simulated cycles, rendered in "minutes" through a
    fixed cycles-per-minute scale.  The series reports, per time bucket,
    the total JITed code size and the requests-per-second relative to the
    steady state — the three curves of Fig. 9.  Points A (profiling code
    done), B (optimized code ready for relocation) and C (published) are
    reported. *)

open Workloads.Endpoints

type sample = {
  s_minute : float;
  s_code_kb : int;
  s_rps_pct : float;          (* throughput vs steady state *)
}

type trace = {
  t_samples : sample list;
  t_point_a_min : float;      (* profiling of hot code complete (trigger) *)
  t_point_b_min : float;      (* optimized code produced *)
  t_point_c_min : float;      (* optimized code published *)
  t_pct_live_steady : float;  (* §6.2: share of JITed-code time in live code *)
  t_final_code_kb : int;
  t_pause_ms : float;         (* real wall-clock pause of retranslate-all *)
}

let cycles_per_minute = 3_000_000

(* background-optimization duration: proportional to optimized code size *)
let opt_cycles_per_byte = 30

(** One period of the deterministic weighted round-robin request mix;
    its length is the natural window for steady-state detection (every
    endpoint appears with its production share exactly once). *)
let pool : endpoint array =
  Array.of_list
    (List.concat_map
       (fun ep -> List.init (max 1 (ep.ep_weight / 5)) (fun _ -> ep))
       endpoints)

let window = Array.length pool

(** Requests [first .. first + n - 1] of the deterministic stream: the
    pool repeated, request [i] taking argument [i + 1]. *)
let stream ?(first = 0) (n : int) : Serving.request array =
  Array.init n (fun j ->
      let i = first + j in
      { Serving.rq_ep = pool.(i mod window); rq_arg = i + 1 })

(* The caller's options (default ones if none), switched to Region mode:
   every startup scenario runs the region JIT. *)
let region_opts (opts : Core.Jit_options.t option) : Core.Jit_options.t =
  let opts = Option.value opts ~default:(Core.Jit_options.default ()) in
  opts.mode <- Core.Jit_options.Region;
  opts

let minute_of (c : int) : float =
  float_of_int c /. float_of_int cycles_per_minute

(** Mean cost of the [n] requests from [lo]. *)
let mean_cost (costs : int array) (lo : int) (n : int) : float =
  float_of_int (Array.fold_left ( + ) 0 (Array.sub costs lo n))
  /. float_of_int n

(** Retranslate-all under the background-compile model.  The compiler
    runs now, but its cycles are not charged to serving: the paper uses a
    pool of four background threads.  Until publication, serving would
    continue on profiling code; the optimized code is in fact installed at
    once, so the model records the publication point instead: optimized
    code is produced (point B) [opt_cycles_per_byte] per byte after the
    trigger (point A), and published (point C) a tenth of a minute later.
    Returns the three points in minutes. *)
let background_retranslate (eng : Core.Engine.t) : float * float * float =
  let before = Runtime.Ledger.read () in
  ignore (Core.Engine.retranslate_all eng);
  Runtime.Ledger.set_cycles before;
  let fin = before + eng.Core.Engine.opt_bytes * opt_cycles_per_byte in
  (minute_of before, minute_of fin, minute_of (fin + cycles_per_minute / 10))

(** Serve the stream from a cold engine for [total_minutes] of simulated
    time, firing retranslate-all after request [trigger_requests].
    Throughput is normalized to the steady state of the same stream: the
    mean cost of its final pool window, when optimized code has long been
    published (as {!measure_startup} does). *)
let simulate ?(opts : Core.Jit_options.t option)
    ?(trigger_requests = 600) ?(total_minutes = 30.0) () : trace =
  let opts = region_opts opts in
  let u = Serving.load_unit () in
  let eng = Core.Engine.install ~opts u in
  let points = ref (0.0, 0.0, 0.0) and pause_ms = ref 0.0 in
  (* closed buckets as (start, end, code bytes, requests), newest first;
     their throughput is normalized once the steady state is known *)
  let buckets = ref [] in
  let bucket_reqs = ref 0 and bucket_start = ref 0 in
  let close_bucket () =
    let now = Runtime.Ledger.read () in
    if now > !bucket_start then begin
      buckets :=
        (!bucket_start, now, Core.Engine.code_bytes eng, !bucket_reqs)
        :: !buckets;
      bucket_reqs := 0;
      bucket_start := now
    end
  in
  let limit = int_of_float (total_minutes *. float_of_int cycles_per_minute) in
  (* the run ends at the first request boundary at or past [limit], where
     the trace's totals are read: (live cycles, JIT cycles, code bytes);
     the rest of that pool period is served unrecorded *)
  let served = ref 0 and ended = ref None in
  let end_request () =
    if Runtime.Ledger.read () - !bucket_start >= cycles_per_minute / 2 then
      close_bucket ();
    if Runtime.Ledger.read () >= limit then begin
      close_bucket ();
      let m = eng.Core.Engine.machine in
      ended := Some (m.Core.Exec.cycles_live,
                     m.Core.Exec.cycles_live + m.Core.Exec.cycles_prof
                     + m.Core.Exec.cycles_opt,
                     Core.Engine.code_bytes eng)
    end
  in
  (* the restart protocol: other server waves are down, so early servers
     see elevated load; we model steady arrival and measure capacity *)
  let retranslate () =
    if !ended = None then begin
      let pause_before = Obs.Vmstats.timer_seconds "retranslate.pause" in
      points := background_retranslate eng;
      pause_ms :=
        1000. *. (Obs.Vmstats.timer_seconds "retranslate.pause" -. pause_before);
      (* charge the relocation pause (brief stop-the-world publish) *)
      Runtime.Ledger.charge (cycles_per_minute / 20);
      end_request ()
    end
  in
  (* one pool period per run: request [first + n] of the stream completes
     as the run's [n]th *)
  let costs = ref [] in
  while !ended = None do
    let base = window * List.length !costs in
    let trigger =
      let at = trigger_requests - base in
      if at >= 1 && at <= window then Some (at, retranslate) else None
    in
    let each n =
      if !ended = None then begin
        served := base + n;
        incr bucket_reqs;
        if base + n <> trigger_requests then end_request ()
      end
    in
    let r =
      Serving.run ~workers:1 ?trigger ~each u eng (stream ~first:base window)
    in
    costs := r.Serving.sv_cycles :: !costs
  done;
  let last = min window !served in
  let steady =
    mean_cost (Array.concat (List.rev !costs)) (!served - last) last
  in
  let live, jit_cycles, code_bytes = Option.get !ended in
  let a, b, c = !points in
  { t_samples =
      List.rev_map
        (fun (t0, t1, bytes, reqs) ->
           let rps = float_of_int reqs /. float_of_int (t1 - t0) in
           { s_minute = minute_of t1;
             s_code_kb = bytes / 1024;
             s_rps_pct = 100.0 *. rps *. steady })
        !buckets;
    t_point_a_min = a;
    t_point_b_min = b;
    t_point_c_min = c;
    t_pct_live_steady =
      (if jit_cycles = 0 then 0.0
       else 100.0 *. float_of_int live /. float_of_int jit_cycles);
    t_final_code_kb = code_bytes / 1024;
    t_pause_ms = !pause_ms }

(* ------------------------------------------------------------------ *)
(* Jumpstart (paper §6.2): dump a warmed image, restore it cold        *)
(* ------------------------------------------------------------------ *)

(** Warm up, capture, and write a jumpstart image.  Returns the image
    size in bytes, or an error when the engine produced nothing worth
    dumping (e.g. a mode that never optimizes). *)
let dump ?(opts : Core.Jit_options.t option)
    ?(trigger_requests = 600) ~(path : string) ()
  : (int, string) result =
  let opts = region_opts opts in
  (* warm the way a production instance does: serve the stream up to the
     profiling trigger, then retranslate-all *)
  let u, eng = Serving.bring_up ~opts ~warmup:(stream trigger_requests) () in
  match Core.Engine.capture_image eng with
  | None -> Error "no optimized code to capture (retranslate-all produced nothing)"
  | Some im ->
    let digest = Core.Jumpstart.unit_digest u opts in
    Ok (Core.Jumpstart.save ~path ~digest im)

type restore_result = {
  rs_engine : Core.Engine.t;
  rs_unit : Hhbc.Hunit.t;
  rs_jumpstarted : bool;       (** false = the image was rejected *)
  rs_error : string option;    (** why, when [rs_jumpstarted = false] *)
}

(** Fresh-process start with a jumpstart image: install a cold engine,
    validate the image against this build's unit + codegen options, and
    adopt it.  Degrades gracefully — a missing, stale, or corrupted image
    logs one line and leaves the engine cold (never a crash); the caller
    always gets a working engine either way. *)
let restore ?(opts : Core.Jit_options.t option) ~(path : string) ()
  : restore_result =
  let opts = region_opts opts in
  let u = Serving.load_unit () in
  let eng = Core.Engine.install ~opts u in
  let digest = Core.Jumpstart.unit_digest u opts in
  match Core.Jumpstart.load ~path ~digest with
  | Ok im ->
    Core.Engine.adopt_image eng im;
    { rs_engine = eng; rs_unit = u; rs_jumpstarted = true; rs_error = None }
  | Error reason ->
    Printf.eprintf "jumpstart: %s: %s; falling back to cold start\n%!"
      path reason;
    { rs_engine = eng; rs_unit = u; rs_jumpstarted = false;
      rs_error = Some reason }

(* ------------------------------------------------------------------ *)
(* Startup measurement: requests-to-steady-state, cold vs jumpstarted  *)
(* ------------------------------------------------------------------ *)

type startup_metrics = {
  su_requests_to_steady : int;
  (** first request index from which a full mix-period window of requests
      runs within 5% of steady-state cost *)
  su_first_window_pct : float;   (** first-window throughput vs steady, % *)
  su_point_a_min : float;        (** profiling done / trigger (0 = skipped) *)
  su_point_b_min : float;        (** optimized code produced (0 = skipped) *)
  su_point_c_min : float;        (** optimized code published (0 = skipped) *)
  su_prof_translations : int;
  su_opt_translations : int;
  su_retranslate_runs : int;
  su_output_hash : int;
  su_main_code_kb : int;         (** optimized hot-section bytes *)
}

type startup_report = {
  sr_cold : startup_metrics;
  sr_jump : startup_metrics;
  sr_delta_requests : int;       (** cold minus jumpstarted steady point *)
  sr_hash_match : bool;          (** outputs bit-identical across the two *)
  sr_image_bytes : int;
}

(** Serve [total] requests from the deterministic stream, recording each
    request's simulated cost and output; optionally fire retranslate-all
    after request [retranslate_at] with the same background-compile model
    as {!simulate} (compile cycles are not charged to serving; points B/C
    mark the modeled publication). *)
let serve_measured (u : Hhbc.Hunit.t) (eng : Core.Engine.t) ~(total : int)
    ~(retranslate_at : int option)
  : int array * string array * float * float * float =
  (* lifecycle cadence: one liveness decay / evict / compact opportunity
     per request window.  A no-op until the operator opts in
     (tc_evict_threshold > 0) and optimized code is published; ledger
     restored so maintenance never shows up in the request cost stream. *)
  let tick n =
    if n mod window = 0 then begin
      let before = Runtime.Ledger.read () in
      ignore (Core.Engine.tc_lifecycle_tick eng);
      Runtime.Ledger.set_cycles before
    end
  in
  let points = ref (0.0, 0.0, 0.0) in
  let trigger =
    Option.map
      (fun t -> (t, fun () -> points := background_retranslate eng))
      retranslate_at
  in
  let r =
    Serving.run ~workers:1 ?trigger ~each:tick u eng (stream total)
  in
  let pa, pb, pc = !points in
  (r.Serving.sv_cycles, r.Serving.sv_outputs, pa, pb, pc)

(** First request index from which the sliding [window]-request mean cost
    stays within 5% of the steady-state mean (the final window — by then
    both the cold and the jumpstarted engine are fully optimized). *)
let requests_to_steady (costs : int array) ~(window : int) : int =
  let n = Array.length costs in
  if window <= 0 || window > n then 0
  else begin
    let prefix = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do prefix.(i + 1) <- prefix.(i) + costs.(i) done;
    let wmean i =
      float_of_int (prefix.(i + window) - prefix.(i)) /. float_of_int window
    in
    let steady = wmean (n - window) in
    let i = ref 0 in
    while !i < n - window && wmean !i > 1.05 *. steady do incr i done;
    !i
  end

(** Measure the startup cliff cold vs jumpstarted: run a fresh engine to
    steady state (retranslate-all at the trigger), dump its image, then
    boot a second fresh engine from the image and serve the identical
    request stream.  Deterministic: everything is simulated cycles. *)
let measure_startup ?(opts : Core.Jit_options.t option)
    ?(trigger_requests = 600) ?(path : string option) ()
  : startup_report =
  let opts = region_opts opts in
  let total = trigger_requests + 4 * window in
  let metrics (eng : Core.Engine.t)
      ((costs, outputs, pa, pb, pc) : int array * string array * float * float * float)
    : startup_metrics =
    let prefix_w = mean_cost costs 0 window in
    let steady = mean_cost costs (total - window) window in
    { su_requests_to_steady = requests_to_steady costs ~window;
      su_first_window_pct =
        (if prefix_w > 0.0 then 100.0 *. steady /. prefix_w else 0.0);
      su_point_a_min = pa; su_point_b_min = pb; su_point_c_min = pc;
      su_prof_translations = eng.Core.Engine.n_profiling;
      su_opt_translations = eng.Core.Engine.n_optimized;
      su_retranslate_runs = Obs.Vmstats.counter_value "retranslate.runs";
      su_output_hash = Serving.output_hash outputs;
      su_main_code_kb =
        Simcpu.Codecache.section_bytes eng.Core.Engine.cache
          Simcpu.Codecache.Main / 1024 }
  in
  (* --- cold process: the full warmup cliff --- *)
  let u = Serving.load_unit () in
  let eng = Core.Engine.install ~opts u in
  let cold_run =
    serve_measured u eng ~total ~retranslate_at:(Some trigger_requests)
  in
  let cold = metrics eng cold_run in
  (* --- dump the warmed image --- *)
  let temp = path = None in
  let path =
    match path with
    | Some p -> p
    | None -> Filename.temp_file "jumpstart" ".img"
  in
  let image_bytes =
    match Core.Engine.capture_image eng with
    | None -> 0
    | Some im ->
      Core.Jumpstart.save ~path ~digest:(Core.Jumpstart.unit_digest u opts) im
  in
  (* --- jumpstarted fresh process: same stream, no cliff --- *)
  let opts2 = Core.Jit_options.default () in
  opts2.jit_workers <- opts.jit_workers;
  opts2.request_workers <- opts.request_workers;
  let r = restore ~opts:opts2 ~path () in
  let jump_run =
    serve_measured r.rs_unit r.rs_engine ~total ~retranslate_at:None
  in
  let jump = metrics r.rs_engine jump_run in
  if temp then (try Sys.remove path with Sys_error _ -> ());
  { sr_cold = cold;
    sr_jump = jump;
    sr_delta_requests = cold.su_requests_to_steady - jump.su_requests_to_steady;
    sr_hash_match = cold.su_output_hash = jump.su_output_hash;
    sr_image_bytes = image_bytes }
