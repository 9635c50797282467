(** Parallel retranslate-all (multi-domain compile, deterministic publish):

    - Jit_worker: every task runs exactly once, results come back in task
      order for any worker count, the queue tolerates more workers than
      tasks, and a raising task doesn't abort the rest (first exception
      re-raised after the join).
    - Determinism: output hash, code-cache byte totals, and the tc-print
      report are identical for [--jit-workers] in {1, 2, 4} on both the
      perflab mix and a direct endpoints workload; JIT trace output (ring
      drain, seq numbers included) is stable too.
    - Vmstats exactness: compile-phase counters (region formation, pass
      pipeline) and serving workers' counters are absorbed from each
      worker domain without loss or double counting, so totals match the
      serial run exactly, also for a retranslate-all nested in a burst.
    - Trace: events that serving workers emit concurrently keep whole
      lines and unique sequence numbers.
    - Stress: requests interleaved with repeated retranslations at 4
      workers keep producing interpreter-identical output. *)

let workers_counts = [ 1; 2; 4 ]

(* ---- Jit_worker queue ---- *)

let test_worker_order () =
  List.iter
    (fun w ->
       let tasks = Array.init 23 (fun i () -> i * i) in
       let r = Core.Jit_worker.run ~workers:w tasks in
       Alcotest.(check (array int))
         (Printf.sprintf "results in task order @ %d workers" w)
         (Array.init 23 (fun i -> i * i))
         r)
    [ 1; 2; 4; 9; 64 ]

let test_worker_empty () =
  Alcotest.(check (array int)) "no tasks" [||]
    (Core.Jit_worker.run ~workers:4 [||])

let test_worker_exn () =
  let ran = Array.make 10 false in
  let tasks =
    Array.init 10
      (fun i () ->
         ran.(i) <- true;
         if i = 3 then failwith "boom3";
         if i = 7 then failwith "boom7";
         i)
  in
  (match Core.Jit_worker.run ~workers:4 tasks with
   | _ -> Alcotest.fail "expected a task exception to re-raise"
   | exception Failure msg ->
     Alcotest.(check string) "lowest-index exception wins" "boom3" msg);
  Alcotest.(check bool) "every task still ran" true
    (Array.for_all Fun.id ran)

(* ---- Determinism across worker counts ---- *)

let perflab_run (w : int) : int * int * string =
  let r =
    Server.Perflab.run Core.Jit_options.Region
      ~tweak:(fun o -> o.Core.Jit_options.jit_workers <- w)
  in
  ( r.Server.Perflab.r_output_hash,
    r.Server.Perflab.r_code_bytes,
    Core.Tc_print.report ~top:10 r.Server.Perflab.r_engine )

let test_perflab_determinism () =
  let runs = List.map (fun w -> (w, perflab_run w)) workers_counts in
  let _, (h1, b1, tc1) = List.hd runs in
  List.iter
    (fun (w, (h, b, tc)) ->
       Alcotest.(check int)
         (Printf.sprintf "perflab output hash @ %d workers" w) h1 h;
       Alcotest.(check int)
         (Printf.sprintf "perflab code bytes @ %d workers" w) b1 b;
       Alcotest.(check string)
         (Printf.sprintf "perflab tc-print @ %d workers" w) tc1 tc)
    (List.tl runs)

(* [rounds] passes over the endpoint list, one request per endpoint per
   pass; endpoint [i] takes [arg ~round i] in pass [round] (from 1). *)
let each_endpoint ~(rounds : int) (arg : round:int -> int -> int)
  : Server.Serving.request array =
  Array.concat
    (List.init rounds (fun r ->
         Array.of_list
           (List.mapi
              (fun i ep ->
                 { Server.Serving.rq_ep = ep; rq_arg = arg ~round:(r + 1) i })
              Workloads.Endpoints.endpoints)))

(* The steady-state warmup of the serving tests: ten passes, every
   endpoint profiled. *)
let warmup_passes = each_endpoint ~rounds:10 (fun ~round i -> round * 3 + i)

(* Direct endpoints workload: warm every endpoint, retranslate, keep
   serving; returns the full output transcript plus cache/tc-print state. *)
let endpoints_run ?(trace = false) (w : int) : string * int * string =
  let u = Server.Serving.load_unit () in
  let opts = Core.Jit_options.default () in
  opts.Core.Jit_options.mode <- Core.Jit_options.Region;
  opts.Core.Jit_options.jit_workers <- w;
  if trace then
    opts.Core.Jit_options.trace <- Some "translate,retranslate-all,link";
  let eng = Core.Engine.install ~opts u in
  let buf = Buffer.create 4096 in
  let serve rounds salt =
    Array.iter (Buffer.add_string buf)
      (Server.Serving.run ~workers:1 u eng
         (each_endpoint ~rounds (fun ~round i -> salt + i + round)))
        .Server.Serving.sv_outputs
  in
  serve 30 0;
  ignore (Core.Engine.retranslate_all eng);
  serve 5 7;
  (Buffer.contents buf, Core.Engine.code_bytes eng,
   Core.Tc_print.report ~top:8 eng)

let test_endpoints_determinism () =
  let runs = List.map (fun w -> (w, endpoints_run w)) workers_counts in
  let _, (out1, b1, tc1) = List.hd runs in
  List.iter
    (fun (w, (out, b, tc)) ->
       Alcotest.(check string)
         (Printf.sprintf "endpoints output @ %d workers" w) out1 out;
       Alcotest.(check int)
         (Printf.sprintf "endpoints code bytes @ %d workers" w) b1 b;
       Alcotest.(check string)
         (Printf.sprintf "endpoints tc-print @ %d workers" w) tc1 tc)
    (List.tl runs)

let test_trace_determinism () =
  let trace_run w =
    ignore (endpoints_run ~trace:true w);
    let lines = Obs.Trace.drain () in
    Obs.Trace.configure ~spec:None ();
    lines
  in
  let runs = List.map (fun w -> (w, trace_run w)) workers_counts in
  let _, l1 = List.hd runs in
  Alcotest.(check bool) "trace produced events" true (l1 <> []);
  List.iter
    (fun (w, l) ->
       Alcotest.(check (list string))
         (Printf.sprintf "trace events (incl. seq) @ %d workers" w) l1 l)
    (List.tl runs)

(* ---- Vmstats shard-merge exactness ---- *)

let compile_counters =
  [ "region.formed"; "region.blocks"; "region.arcs_covered";
    "pass.simplify.changed"; "pass.load_elim.changed"; "pass.gvn.changed";
    "pass.store_elim.changed"; "pass.rce.changed"; "pass.dce.changed";
    "pass.unreachable.changed"; "translate.rejected"; "retranslate.runs" ]

let test_vmstats_exact () =
  let counters_run w =
    ignore (endpoints_run w);
    List.map (fun n -> (n, Obs.Vmstats.counter_value n)) compile_counters
  in
  let runs = List.map (fun w -> (w, counters_run w)) workers_counts in
  let _, c1 = List.hd runs in
  Alcotest.(check bool) "compile-phase counters are live" true
    (List.exists (fun (_, v) -> v > 0) c1);
  List.iter
    (fun (w, c) ->
       List.iter2
         (fun (n, v1) (_, v) ->
            Alcotest.(check int)
              (Printf.sprintf "counter %s @ %d workers" n w) v1 v)
         c1 c)
    (List.tl runs)

(* ---- Stress: serving interleaved with repeated retranslations ---- *)

let test_stress_interleave () =
  let interp_out = ref "" in
  let region_out = ref "" in
  let run_mode (mode : Core.Jit_options.mode) (sink : string ref) =
    let u = Server.Serving.load_unit () in
    let opts = Core.Jit_options.default () in
    opts.Core.Jit_options.mode <- mode;
    opts.Core.Jit_options.jit_workers <- 4;
    let eng = Core.Engine.install ~opts u in
    let buf = Buffer.create 4096 in
    for round = 1 to 6 do
      Array.iter (Buffer.add_string buf)
        (Server.Serving.run ~workers:1 u eng
           (each_endpoint ~rounds:12 (fun ~round:k i -> round * 31 + i + k)))
          .Server.Serving.sv_outputs;
      (* trigger retranslate mid-traffic, repeatedly: exercises the sort
         cache, link invalidation, and re-publication under churn *)
      if mode = Core.Jit_options.Region then
        ignore (Core.Engine.retranslate_all eng)
    done;
    sink := Buffer.contents buf
  in
  run_mode Core.Jit_options.Interp interp_out;
  run_mode Core.Jit_options.Region region_out;
  Alcotest.(check string)
    "interleaved retranslate output matches interpreter" !interp_out
    !region_out

(* ---- Parallel request serving over the shared translation cache ---- *)

(* Fresh warmed engine: every endpoint profiled, optimized code published
   (Region mode) — the steady state a production server serves from. *)
let serving_engine ?budget ?(mode = Core.Jit_options.Region) ()
  : Hhbc.Hunit.t * Core.Engine.t =
  let opts = Core.Jit_options.default () in
  opts.Core.Jit_options.mode <- mode;
  (match budget with
   | Some b -> opts.Core.Jit_options.code_budget <- Some b
   | None -> ());
  Server.Serving.bring_up ~opts ~warmup:warmup_passes ()

(* One serving burst on a fresh engine.  [trigger_at] fires a full
   retranslate-all on whichever domain completes that many requests. *)
let serving_run ?budget ?mode ?trigger_at (workers : int)
  : Server.Serving.result =
  let u, eng = serving_engine ?budget ?mode () in
  let trigger =
    Option.map
      (fun at -> (at, fun () -> ignore (Core.Engine.retranslate_all eng)))
      trigger_at
  in
  let requests = Server.Serving.mix ~rounds:6 () in
  Server.Serving.run ~workers ?trigger u eng requests

let check_serving_equal (what : string) (r1 : Server.Serving.result)
    (r : Server.Serving.result) =
  Alcotest.(check (array string))
    (what ^ ": per-request outputs") r1.Server.Serving.sv_outputs
    r.Server.Serving.sv_outputs;
  Alcotest.(check int) (what ^ ": output hash")
    r1.Server.Serving.sv_output_hash r.Server.Serving.sv_output_hash

let test_serving_parity () =
  let r1 = serving_run 1 in
  Alcotest.(check bool) "serving produced output" true
    (Array.length r1.Server.Serving.sv_outputs > 0
     && Array.exists (fun s -> s <> "") r1.Server.Serving.sv_outputs);
  List.iter
    (fun w ->
       check_serving_equal
         (Printf.sprintf "serving @ %d workers" w) r1 (serving_run w))
    [ 2; 4 ]

let test_serving_retranslate_stress () =
  (* fire a full retranslate-all mid-burst: racing requests must see the
     old epoch or the new one, never a half-published table — pinned
     against the single-domain run with the same trigger *)
  let n = Array.length (Server.Serving.mix ~rounds:6 ()) in
  let r1 = serving_run ~trigger_at:(n / 3) 1 in
  check_serving_equal "retranslate mid-burst @ 4 workers" r1
    (serving_run ~trigger_at:(n / 3) 4)

let test_serving_budget_exhaustion () =
  (* a tiny code budget exhausts during warmup: every domain must fall
     back to the interpreter and produce interpreter-identical output *)
  let budget = 2000 in
  let r1 = serving_run ~budget 1 in
  check_serving_equal "budget-exhausted serving @ 4 workers" r1
    (serving_run ~budget 4);
  let ri = serving_run ~mode:Core.Jit_options.Interp 1 in
  check_serving_equal "budget-exhausted serving vs interpreter" ri r1

let test_serving_prof_exact () =
  (* worker-sharded profile counters merge losslessly: per-function entry
     counts after the burst are exact for any worker count *)
  let counts w =
    let u, eng = serving_engine () in
    let before =
      Array.init (Hhbc.Hunit.num_funcs u) Vm.Prof.func_entry_count
    in
    let requests = Server.Serving.mix ~rounds:6 () in
    ignore (Server.Serving.run ~workers:w u eng requests);
    Array.init (Hhbc.Hunit.num_funcs u)
      (fun fid -> Vm.Prof.func_entry_count fid - before.(fid))
  in
  let c1 = counts 1 in
  Alcotest.(check bool) "serving recorded function entries" true
    (Array.exists (fun c -> c > 0) c1);
  List.iter
    (fun w ->
       Alcotest.(check (array int))
         (Printf.sprintf "func-entry counts @ %d workers" w) c1 (counts w))
    [ 2; 4 ]

let test_serving_heap_clean () =
  (* request-private heap values allocated on worker domains are all freed
     and absorbed at the join: no live-count drift vs before the burst *)
  let u, eng = serving_engine () in
  let live_before = (Runtime.Heap.stats ()).Runtime.Heap.live in
  let requests = Server.Serving.mix ~rounds:6 () in
  ignore (Server.Serving.run ~workers:4 u eng requests);
  let hs = Runtime.Heap.stats () in
  Alcotest.(check int) "heap live unchanged after parallel serving"
    live_before hs.Runtime.Heap.live;
  Alcotest.(check bool) "workers' allocations were absorbed" true
    (hs.Runtime.Heap.allocated > live_before)

(* ---- Vmstats exactness across request workers ---- *)

let op_counter_names =
  Array.to_list (Array.map (( ^ ) "interp.op.") Hhbc.Instr.opcode_names)

(* Interp-mode serving: each worker counts every op it interprets into
   its own domain's array, and the join absorbs them, so the per-opcode
   totals are the same at any worker count and add up to the retired
   instruction count.  [interp.meth_cache.*] depends on which domain
   served what, so it is not compared. *)
let test_vmstats_exact_serving () =
  let op_counts w =
    let u, eng = serving_engine ~mode:Core.Jit_options.Interp () in
    let before = List.map Obs.Vmstats.counter_value op_counter_names in
    let i0 = Vm.Interp.instr_count () in
    ignore (Server.Serving.run ~workers:w u eng (Server.Serving.mix ~rounds:6 ()));
    let counts =
      List.map2 (fun n b -> (n, Obs.Vmstats.counter_value n - b))
        op_counter_names before
    in
    (counts, Vm.Interp.instr_count () - i0)
  in
  let c1, _ = op_counts 1 in
  List.iter
    (fun w ->
       let c, instrs = op_counts w in
       Alcotest.(check (list (pair string int)))
         (Printf.sprintf "interp.op.* @ %d workers" w) c1 c;
       Alcotest.(check int)
         (Printf.sprintf "op counts sum to retired instrs @ %d workers" w)
         instrs
         (List.fold_left (fun acc (_, v) -> acc + v) 0 c))
    workers_counts;
  Alcotest.(check bool) "ops were counted" true
    (List.exists (fun (_, v) -> v > 0) c1)

(* A retranslate-all fired on a serving worker compiles on two more
   domains: they are absorbed into that worker, and the worker into the
   main domain at the serving join. *)
let test_vmstats_nested_retranslate () =
  let opts = Core.Jit_options.default () in
  opts.Core.Jit_options.mode <- Core.Jit_options.Region;
  opts.Core.Jit_options.jit_workers <- 2;
  let u, eng = Server.Serving.bring_up ~opts ~warmup:warmup_passes () in
  let requests = Server.Serving.mix ~rounds:6 () in
  let before = List.map Obs.Vmstats.counter_value compile_counters in
  let trigger =
    (Array.length requests / 3,
     fun () -> ignore (Core.Engine.retranslate_all eng))
  in
  ignore (Server.Serving.run ~workers:4 ~trigger u eng requests);
  let delta =
    List.map2 (fun n b -> (n, Obs.Vmstats.counter_value n - b))
      compile_counters before
  in
  Alcotest.(check int) "one retranslate-all in the burst" 1
    (List.assoc "retranslate.runs" delta);
  Alcotest.(check bool) "its compile counters reached the main domain" true
    (List.exists
       (fun (n, v) -> n <> "retranslate.runs" && v > 0)
       delta)

(* ---- Trace: concurrent emission from serving workers ---- *)

(* Serving workers emit guard and exit events straight to the shared
   ring during a parallel burst: each drained line must be whole and
   carry its own sequence number. *)
let test_trace_parallel_emit () =
  let opts = Core.Jit_options.default () in
  opts.Core.Jit_options.mode <- Core.Jit_options.Region;
  let u, eng = Server.Serving.bring_up ~opts ~warmup:warmup_passes () in
  Obs.Trace.configure ~spec:(Some "guard,exit") ();
  ignore
    (Server.Serving.run ~workers:4 u eng (Server.Serving.mix ~rounds:6 ()));
  let lines = Obs.Trace.drain () in
  Obs.Trace.configure ~spec:None ();
  Alcotest.(check bool) "the burst traced events" true (lines <> []);
  Alcotest.(check bool) "drained at most the ring capacity" true
    (List.length lines <= Obs.Trace.default_ring_capacity);
  let seq_of line =
    match
      Scanf.sscanf line "{\"seq\": %d, \"cat\": \"%[a-z]\"%_s@}%!"
        (fun seq cat -> (seq, cat))
    with
    | seq, ("guard" | "exit") -> Some seq
    | _ -> None
    | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None
  in
  let seqs = List.filter_map seq_of lines in
  Alcotest.(check int) "every drained line parses" (List.length lines)
    (List.length seqs);
  Alcotest.(check int) "every seq is unique" (List.length seqs)
    (List.length (List.sort_uniq compare seqs))

(* ---- Lazy in-burst translation (write lease + incremental publish) ---- *)

(* Cold Region-mode engine: no warmup, so every endpoint's entry srckey
   misses on first touch inside the burst itself. *)
let cold_engine () : Hhbc.Hunit.t * Core.Engine.t =
  let u = Server.Serving.load_unit () in
  let opts = Core.Jit_options.default () in
  opts.Core.Jit_options.mode <- Core.Jit_options.Region;
  (u, Core.Engine.install ~opts u)

let test_lazy_lease_contention () =
  (* identical requests against a cold engine: several workers miss the
     same entry srckey at once; the lease plus drain-time dedup must land
     exactly one translation for it no matter who raced *)
  let u, eng = cold_engine () in
  let ep = List.hd Workloads.Endpoints.endpoints in
  let requests =
    Array.make 16 { Server.Serving.rq_ep = ep; rq_arg = 42 }
  in
  let r4 = Server.Serving.run ~workers:4 u eng requests in
  (* read before the next install resets the counters *)
  let lazy_compiled =
    Obs.Vmstats.counter_value "lazy_translate.compiled"
  in
  let u1, eng1 = cold_engine () in
  let r1 = Server.Serving.run ~workers:1 u1 eng1 requests in
  check_serving_equal "contended cold burst @ 4 workers" r1 r4;
  let fid =
    match Hhbc.Hunit.find_func u ep.ep_entry with
    | Some fid -> fid
    | None -> Alcotest.fail ("no such function: " ^ ep.ep_entry)
  in
  Alcotest.(check int) "exactly one translation at the contended srckey"
    1
    (match Core.Engine.slot_at eng.trans fid 0 with
     | Some sl -> sl.sl_len
     | None -> 0);
  Alcotest.(check bool) "lazy compiles landed" true (lazy_compiled > 0)

let test_serving_lazy_determinism () =
  (* incremental epoch publish under churn: hash parity across worker
     counts with lazy translation on (the default), including a full
     retranslate-all fired mid-burst over the delta-published epochs *)
  let n = Array.length (Server.Serving.mix ~rounds:6 ()) in
  let r1 = serving_run ~trigger_at:(n / 3) 1 in
  List.iter
    (fun w ->
       check_serving_equal
         (Printf.sprintf
            "lazy serving + mid-burst retranslate @ %d workers" w)
         r1
         (serving_run ~trigger_at:(n / 3) w))
    [ 2; 4 ];
  Alcotest.(check bool) "incremental epoch publishes happened" true
    (Obs.Vmstats.counter_value "epoch.delta_publish" > 0)

let test_lazy_queue_overflow () =
  (* a one-slot ring overflows on the second distinct in-burst miss: the
     requesters must fall back to the interpreter with no divergence
     (the burst-start queue reset preserves the shrunken capacity) *)
  let requests = Server.Serving.mix ~rounds:6 () in
  let n = Array.length requests in
  let r1 = serving_run ~trigger_at:(n / 3) 1 in
  let u, eng = serving_engine () in
  Core.Translate_queue.reset ~capacity:1 ();
  let trigger =
    (n / 3, fun () -> ignore (Core.Engine.retranslate_all eng))
  in
  let r = Server.Serving.run ~workers:4 ~trigger u eng requests in
  check_serving_equal "queue-overflow serving @ 4 workers" r1 r;
  Alcotest.(check bool) "queue overflowed" true
    (Obs.Vmstats.counter_value "lazy_translate.queue_overflow" > 0);
  (* ... and at the code-size cap: the budget exhausts during warmup, the
     tiny ring overflows on whatever still enqueues, and every requester
     interprets — output identical to the pure interpreter *)
  let budget = 2000 in
  let r1b = serving_run ~budget 1 in
  let ub, engb = serving_engine ~budget () in
  Core.Translate_queue.reset ~capacity:1 ();
  let rb = Server.Serving.run ~workers:4 ub engb requests in
  Core.Translate_queue.reset
    ~capacity:Core.Translate_queue.default_capacity ();
  check_serving_equal "overflow at code cap @ 4 workers" r1b rb;
  let ri = serving_run ~mode:Core.Jit_options.Interp 1 in
  check_serving_equal "overflow at code cap vs interpreter" ri rb

(* The one epoch publisher: a [~fids] publish rebuilds exactly those
   rows from the live tables and shares every other row with the previous
   epoch; only a [~fids] publish counts as a delta, and [~fids:[]]
   publishes nothing. *)
let test_publish_epoch_rows () =
  let open Core.Engine in
  let _, eng = serving_engine () in
  let deltas () = Obs.Vmstats.counter_value "epoch.delta_publish" in
  let d0 = deltas () in
  let ep0 = Atomic.get eng.published in
  publish_epoch eng;
  let ep1 = Atomic.get eng.published in
  Alcotest.(check int) "full publish advances the seq" (ep0.ep_seq + 1)
    ep1.ep_seq;
  Alcotest.(check int) "full publish is not a delta" d0 (deltas ());
  publish_epoch ~fids:[] eng;
  Alcotest.(check int) "~fids:[] does not advance the seq" ep1.ep_seq
    (Atomic.get eng.published).ep_seq;
  (* a function with translations; give one of its live chains spare
     capacity past [sl_len], as chain growth leaves it *)
  let f =
    let rec go fid =
      if fid >= Array.length eng.trans then Alcotest.fail "no translations"
      else if Array.exists Option.is_some eng.trans.(fid) then fid
      else go (fid + 1)
    in
    go 0
  in
  (match Array.find_opt Option.is_some eng.trans.(f) with
   | Some (Some sl) ->
     sl.sl_chain <- Array.append sl.sl_chain [| sl.sl_chain.(0) |]
   | _ -> ());
  publish_epoch ~fids:[ f ] eng;
  let ep2 = Atomic.get eng.published in
  Alcotest.(check int) "~fids publish advances the seq" (ep1.ep_seq + 1)
    ep2.ep_seq;
  Alcotest.(check int) "~fids publish counts one delta" (d0 + 1) (deltas ());
  Alcotest.(check int) "generation comes from the engine" eng.generation
    ep2.ep_gen;
  Array.iteri
    (fun fid row ->
       if fid <> f then
         Alcotest.(check bool)
           (Printf.sprintf "row %d shared with the previous epoch" fid) true
           (row == ep1.ep_trans.(fid)))
    ep2.ep_trans;
  let live = eng.trans.(f) and row = ep2.ep_trans.(f) in
  Alcotest.(check int) "rebuilt row length" (Array.length live)
    (Array.length row);
  Array.iteri
    (fun pc sl ->
       let what = Printf.sprintf "fid %d pc %d" f pc in
       match sl, row.(pc) with
       | None, None -> ()
       | Some l, Some e ->
         Alcotest.(check int) (what ^ ": trimmed to sl_len") l.sl_len
           (Array.length e.sl_chain);
         Alcotest.(check int) (what ^ ": sl_len") l.sl_len e.sl_len;
         Alcotest.(check bool) (what ^ ": same translations") true
           (Array.for_all2 ( == ) e.sl_chain (Array.sub l.sl_chain 0 l.sl_len));
         Alcotest.(check bool) (what ^ ": a private copy of the live slot")
           true (e != l)
       | _ -> Alcotest.fail (what ^ ": slot presence differs"))
    live

(* ---- TC lifecycle: eviction + compaction under serving traffic ---- *)

(* Warmed Region engine with the lifecycle knobs on, run through a decay
   loop: small shifted bursts keep the still-trafficked code's liveness
   score replenished while abandoned code halves its way below the
   threshold, then a final shifted burst fires one more lifecycle tick
   (evict + compact) mid-burst on whichever domain crosses halfway. *)
let lifecycle_run (workers : int) : Server.Serving.result * Core.Engine.t =
  let opts = Core.Jit_options.default () in
  opts.Core.Jit_options.mode <- Core.Jit_options.Region;
  opts.Core.Jit_options.request_workers <- workers;
  opts.Core.Jit_options.tc_evict_threshold <- 3;
  opts.Core.Jit_options.tc_compact <- true;
  let u, eng = Server.Serving.bring_up ~opts ~warmup:warmup_passes () in
  for salt = 1 to 12 do
    ignore
      (Server.Serving.run ~workers u eng
         (Server.Serving.mix_shifted ~salt ~rounds:2 ()));
    ignore (Core.Engine.tc_lifecycle_tick eng)
  done;
  let requests = Server.Serving.mix_shifted ~salt:99 ~rounds:6 () in
  let trigger =
    (Array.length requests / 2,
     fun () -> ignore (Core.Engine.tc_lifecycle_tick eng))
  in
  (Server.Serving.run ~workers ~trigger u eng requests, eng)

let test_lifecycle_parity () =
  let r1, eng1 = lifecycle_run 1 in
  let ev1 = Obs.Vmstats.counter_value "tc.evicted" in
  Alcotest.(check bool) "single-domain lifecycle evicted" true (ev1 > 0);
  Alcotest.(check int) "compaction left no holes @ 1 worker" 0
    (Simcpu.Codecache.holes_bytes eng1.Core.Engine.cache);
  List.iter
    (fun w ->
       let r, eng = lifecycle_run w in
       let ev = Obs.Vmstats.counter_value "tc.evicted" in
       Alcotest.(check bool)
         (Printf.sprintf "lifecycle evicted @ %d workers" w) true (ev > 0);
       Alcotest.(check int)
         (Printf.sprintf "compaction left no holes @ %d workers" w) 0
         (Simcpu.Codecache.holes_bytes eng.Core.Engine.cache);
       check_serving_equal
         (Printf.sprintf "evict+compact mid-burst @ %d workers" w) r1 r)
    [ 2; 4 ]

let test_lifecycle_evict_mid_chain () =
  (* a mass eviction + compaction fired mid-burst, while parallel workers
     are mid-chain on the frozen epochs: every translation goes (two
     decay calls — victims must reach age 2), survivors relocate under
     running traffic, and outputs must match both the single-domain run
     with the same trigger and an undisturbed run with no eviction at
     all — eviction changes the dispatch path, never a result *)
  let run_with_evict workers =
    let u, eng = serving_engine () in
    let requests = Server.Serving.mix ~rounds:6 () in
    let evict_all () =
      ignore (Core.Engine.evict_cold eng ~threshold:max_int);
      ignore (Core.Engine.evict_cold eng ~threshold:max_int);
      ignore (Core.Engine.compact_tc eng)
    in
    let trigger = (Array.length requests / 2, evict_all) in
    (Server.Serving.run ~workers ~trigger u eng requests, eng)
  in
  let r_plain = serving_run 1 in
  let r1, eng1 = run_with_evict 1 in
  Alcotest.(check bool) "mass eviction fired" true
    (Obs.Vmstats.counter_value "tc.evicted" > 0);
  Alcotest.(check int) "no optimized code left" 0
    eng1.Core.Engine.n_optimized;
  check_serving_equal "eviction changes no output @ 1 worker" r_plain r1;
  let r4, _ = run_with_evict 4 in
  check_serving_equal "mass eviction mid-burst @ 4 workers" r_plain r4

(* After a domain adopts an epoch it never enters a translation the epoch
   does not hold.  The measured burst serves on one fresh context in slot
   order and fires a mass eviction halfway; that context adopts the
   eviction's epoch at once, so from then on no victim may gain an entry
   on its machine — not through its monomorphic caches, not through a
   link, not through a chain walk. *)
let test_no_victim_entries () =
  let u, eng = serving_engine () in
  let requests = Server.Serving.mix ~rounds:6 () in
  let victims = ref [] in
  let evict_all () =
    ignore (Core.Engine.evict_cold eng ~threshold:max_int);
    ignore (Core.Engine.evict_cold eng ~threshold:max_int);
    let m = (Core.Engine.ctx eng).Core.Engine.dx_machine in
    victims :=
      List.filter_map
        (fun (_, _, (tr : Core.Translation.t)) ->
           if tr.tr_evicted then
             Some (m, tr, Core.Exec.execs m tr.tr_prog)
           else None)
        (Array.to_list eng.Core.Engine.last_opt)
  in
  let me =
    Server.Serving.measure ~trigger:(Array.length requests / 2, evict_all)
      u eng requests
  in
  check_serving_equal "mass eviction in the measured burst" (serving_run 1)
    me.Server.Serving.me_result;
  Alcotest.(check bool) "the eviction had victims" true (!victims <> []);
  Alcotest.(check int) "entries into victims after the adoption" 0
    (List.fold_left
       (fun acc (m, (tr : Core.Translation.t), before) ->
          acc + Core.Exec.execs m tr.tr_prog - before)
       0 !victims)

(* Per-domain counts fold exactly at the join: on a cold engine, where
   every worker profiles, lazily compiles and runs profiling code, each
   run of a translation ends in exactly one [exit.*] event and each
   TransCFG arc event adds one to one arc's weight — at any worker
   count. *)
let test_counts_fold () =
  List.iter
    (fun w ->
       let u, eng = cold_engine () in
       ignore
         (Server.Serving.run ~workers:w u eng (Server.Serving.mix ~rounds:3 ()));
       let cv = Obs.Vmstats.counter_value in
       let execs =
         Array.fold_left ( + ) 0 eng.Core.Engine.machine.Core.Exec.execs
       in
       let exits =
         List.fold_left (fun acc n -> acc + cv ("exit." ^ n)) 0
           [ "return"; "bind"; "interp_anchor"; "inline"; "unwind" ]
       in
       Alcotest.(check bool)
         (Printf.sprintf "translations ran @ %d workers" w) true (execs > 0);
       Alcotest.(check int)
         (Printf.sprintf "folded execs = exit events @ %d workers" w)
         exits execs;
       let arcs = Vm.Prof.fold_arcs (fun _ _ n acc -> acc + n) 0 in
       Alcotest.(check bool)
         (Printf.sprintf "arcs recorded @ %d workers" w) true (arcs > 0);
       Alcotest.(check int)
         (Printf.sprintf "folded arc weights = arc events @ %d workers" w)
         (cv "region.arc_events") arcs)
    workers_counts

(* ---- SimCPU execution after compaction, and its allocation ---- *)

(* A warmed Region engine serving on the calling domain: shifted bursts
   leave the production-only code unentered, each [evict_cold] call decays
   it, and it is evicted once it ages past the threshold; then [compact_tc]
   moves every survivor.  Returns what the production burst served
   afterwards, fetching from the moved addresses, cost: its simulated
   cycles and the machine's i-cache and I-TLB traffic. *)
let compacted_burst () : (string * int) list =
  let u, eng = serving_engine () in
  let published = eng.Core.Engine.n_optimized in
  for salt = 1 to 4 do
    ignore
      (Server.Serving.run ~workers:1 u eng
         (Server.Serving.mix_shifted ~salt ~rounds:2 ()));
    ignore (Core.Engine.evict_cold eng ~threshold:3)
  done;
  let left = eng.Core.Engine.n_optimized in
  Alcotest.(check bool) "part of the optimized code evicted" true
    (left > 0 && left < published);
  Alcotest.(check bool) "compaction closed holes" true
    (Core.Engine.compact_tc eng > 0);
  let m = eng.Core.Engine.machine in
  let ic = m.Core.Exec.icache and tlb = m.Core.Exec.itlb in
  let open Simcpu in
  let ia = ic.Icache.accesses and im = ic.Icache.misses
  and ta = tlb.Itlb.accesses and tm = tlb.Itlb.misses in
  let r = Server.Serving.run ~workers:1 u eng (Server.Serving.mix ~rounds:2 ()) in
  [ ("burst cycles", Array.fold_left ( + ) 0 r.Server.Serving.sv_cycles);
    ("i-cache accesses", ic.Icache.accesses - ia);
    ("i-cache misses", ic.Icache.misses - im);
    ("I-TLB accesses", tlb.Itlb.accesses - ta);
    ("I-TLB misses", tlb.Itlb.misses - tm) ]

let test_compaction_fetch_addresses () =
  (* recorded from the executor that decoded every instruction and read
     its address at each fetch; a translation that kept fetching from its
     old addresses after compaction moved it charges different i-cache
     traffic, which the outputs never show *)
  List.iter2
    (fun (what, want) (what', got) ->
       assert (what = what');
       Alcotest.(check int) what want got)
    [ ("burst cycles", 396_319);
      ("i-cache accesses", 8_225);
      ("i-cache misses", 426);
      ("I-TLB accesses", 1_605);
      ("I-TLB misses", 56) ]
    (compacted_burst ())

(* Host allocation is deterministic where wall clock is not, so JIT
   execution's cost gets an exact gate: minor words per request of a
   warmed Region engine serving the Perflab mix on the calling domain
   (the second of two identical bursts, so lazily grown tables are
   settled).  It measures 2,978.0 with construction templates, index-free
   packed arrays and the allocation-free heap audit; before them it
   measured 3,902.9, reading the domain-local key per op 4,254.9, and the
   decoding loop the flattened executor replaced 10,301.0. *)
let test_exec_minor_words () =
  let u, eng = serving_engine () in
  let requests = Server.Serving.mix ~rounds:4 () in
  let burst () = ignore (Server.Serving.run ~workers:1 u eng requests) in
  burst ();
  let w0 = Gc.minor_words () in
  burst ();
  let per_req =
    (Gc.minor_words () -. w0) /. float_of_int (Array.length requests)
  in
  if per_req > 2_979. then
    Alcotest.failf "%.1f minor words per request, ceiling 2,979" per_req

(* ---- Heap and ledger accounting of a warmed Region burst ---- *)

(* What the second Perflab burst of a warmed Region engine counts on the
   calling domain's account: heap allocations, frees, IncRefs and DecRefs,
   interpreted instructions and cycles.  With [workers > 1] each worker
   counts on its own domain and the join absorbs it, so the heap and
   interpreter figures are the same; the JIT cycles then depend on which
   requests each worker's i-cache saw first, so only [workers = 1] pins
   the total. *)
let burst_accounting (workers : int) : (string * int) list =
  let u, eng = serving_engine () in
  let requests = Server.Serving.mix ~rounds:4 () in
  ignore (Server.Serving.run ~workers:1 u eng requests);
  let read () =
    let h = Runtime.Heap.stats () in
    [ ("allocated", h.Runtime.Heap.allocated);
      ("freed", h.Runtime.Heap.freed);
      ("incref_ops", h.Runtime.Heap.incref_ops);
      ("decref_ops", h.Runtime.Heap.decref_ops);
      ("interp instrs", Vm.Interp.instr_count ());
      ("interp cycles", Runtime.Ledger.interp_cycles ());
      ("cycles", Runtime.Ledger.read ()) ]
  in
  let before = read () in
  ignore (Server.Serving.run ~workers u eng requests);
  List.map2 (fun (k, x) (_, y) -> (k, y - x)) before (read ())

let test_burst_accounting () =
  (* recorded on the runtime that looked the domain's heap stats up at
     every refcount op and allocation; an op counted on a stale or
     foreign account, or twice, moves one of these *)
  let heap =
    [ ("allocated", 3_460); ("freed", 3_460); ("incref_ops", 8_010);
      ("decref_ops", 11_470); ("interp instrs", 168);
      ("interp cycles", 8_112) ]
  in
  let check what want got =
    List.iter2
      (fun (k, w) (k', g) ->
         assert (k = k');
         Alcotest.(check int) (Printf.sprintf "%s: %s" what k) w g)
      want got
  in
  check "1 worker" (heap @ [ ("cycles", 471_325) ]) (burst_accounting 1);
  check "4 workers, absorbed" heap
    (List.filter (fun (k, _) -> k <> "cycles") (burst_accounting 4))

(* ---- Codecache: reset_optimized accounting ---- *)

let test_codecache_reset_accounting () =
  let open Simcpu.Codecache in
  let t = create ~budget:10_000 () in
  ignore (alloc t Main 1_000);
  ignore (alloc t Cold 500);
  ignore (alloc t Prof 4_000);   (* uncounted: reclaimable prof section *)
  ignore (alloc t Live 300);
  Alcotest.(check int) "counted before reset" 1_800 (bytes_counted t);
  Alcotest.(check int) "total before reset" 5_800 (bytes_used t);
  let reclaimed = reset_optimized t in
  Alcotest.(check int) "reclaimed = main + cold bytes" 1_500 reclaimed;
  Alcotest.(check int) "counted after reset" 300 (bytes_counted t);
  Alcotest.(check int) "total after reset" 4_300 (bytes_used t);
  Alcotest.(check int) "main cursor rewound" 0 (section_bytes t Main);
  Alcotest.(check int) "cold cursor rewound" 0 (section_bytes t Cold);
  (* the reclaimed budget is usable again *)
  (match alloc t Main 9_000 with
   | Some _ -> ()
   | None -> Alcotest.fail "budget not returned by reset_optimized");
  Alcotest.(check int) "counted after realloc" 9_300 (bytes_counted t)

let test_codecache_free_compact_accounting () =
  let open Simcpu.Codecache in
  let t = create ~budget:10_000 () in
  ignore (alloc t Main 1_000);
  ignore (alloc t Main 500);
  ignore (alloc t Cold 400);
  ignore (alloc t Prof 2_000);
  Alcotest.(check int) "counted before free" 1_900 (bytes_counted t);
  free t Main 1_000;
  free t Cold 400;
  free t Prof 2_000;             (* uncounted section: never a hole *)
  Alcotest.(check int) "holes grow on free (counted sections only)" 1_400
    (holes_bytes t);
  Alcotest.(check int) "budget still consumed by holes" 1_900
    (bytes_counted t);
  Alcotest.(check int) "cursors untouched by free" 1_500
    (section_bytes t Main);
  let closed = compact_optimized t in
  Alcotest.(check int) "compaction closes exactly the holes" 1_400 closed;
  Alcotest.(check int) "no holes after compaction" 0 (holes_bytes t);
  Alcotest.(check int) "main cursor rewound" 0 (section_bytes t Main);
  Alcotest.(check int) "cold cursor rewound" 0 (section_bytes t Cold);
  (* the caller re-places the 500-byte survivor right away: net budget
     effect of the compaction is exactly -holes *)
  (match alloc t Main 500 with
   | Some _ -> ()
   | None -> Alcotest.fail "budget not returned by compact_optimized");
  Alcotest.(check int) "survivor re-placed" 500 (bytes_counted t);
  Alcotest.(check int) "lifetime reclaimed counts only evicted bytes" 1_400
    (reclaimed_bytes t);
  (* alignment padding is allocated space, not a hole *)
  ignore (alloc t Main 10);
  align_cursor t Main 64;
  Alcotest.(check int) "align pads the cursor to the boundary" 512
    (section_bytes t Main);
  Alcotest.(check int) "alignment creates no holes" 0 (holes_bytes t)

(* ---- Jit_options.resolve: flag > env > default ---- *)

let test_resolve_precedence () =
  let vars =
    [ "JIT_WORKERS"; "REQUEST_WORKERS"; "LAZY_TRANSLATE";
      "TC_EVICT_THRESHOLD"; "JIT_STATS" ]
  in
  let resolved set =
    let o = Core.Jit_options.default () in
    set o;
    Core.Jit_options.resolve o;
    o
  in
  let check_opts tag (o : Core.Jit_options.t) (jw, rw, lazy_, thr, stats) =
    let open Core.Jit_options in
    Alcotest.(check int) (tag ^ ": jit_workers") jw o.jit_workers;
    Alcotest.(check int) (tag ^ ": request_workers") rw o.request_workers;
    Alcotest.(check bool) (tag ^ ": lazy_translate") lazy_ o.lazy_translate;
    Alcotest.(check int) (tag ^ ": tc_evict_threshold") thr
      o.tc_evict_threshold;
    Alcotest.(check bool) (tag ^ ": stats") stats o.stats
  in
  (* resolve ignores the empty string, so "" is how a variable is unset;
     the values the process started with are put back afterwards *)
  let saved = List.map (fun v -> (v, Sys.getenv_opt v)) vars in
  Fun.protect
    ~finally:(fun () ->
        List.iter
          (fun (v, old) -> Unix.putenv v (Option.value old ~default:""))
          saved)
    (fun () ->
       List.iter (fun v -> Unix.putenv v "") vars;
       check_opts "default" (resolved ignore) (1, 1, true, 0, true);
       Unix.putenv "JIT_WORKERS" "3";
       Unix.putenv "REQUEST_WORKERS" "2";
       Unix.putenv "LAZY_TRANSLATE" "0";
       Unix.putenv "TC_EVICT_THRESHOLD" "5";
       Unix.putenv "JIT_STATS" "0";
       check_opts "env over default" (resolved ignore) (3, 2, false, 5, false);
       (* explicit settings beat the environment; LAZY_TRANSLATE=0 and
          JIT_STATS=0 are kill switches, so they win over a flag that
          leaves the feature on *)
       check_opts "flag over env"
         (resolved (fun o ->
              o.Core.Jit_options.jit_workers <- 2;
              o.Core.Jit_options.request_workers <- 4;
              o.Core.Jit_options.tc_evict_threshold <- 7))
         (2, 4, false, 7, false);
       (* only 0/false/off reacts: LAZY_TRANSLATE=1 cannot turn it on *)
       Unix.putenv "LAZY_TRANSLATE" "1";
       Alcotest.(check bool) "LAZY_TRANSLATE=1 is a no-op" false
         (resolved (fun o -> o.Core.Jit_options.lazy_translate <- false))
           .Core.Jit_options.lazy_translate)

let suite =
  ( "parallel",
    [ Alcotest.test_case "jit_worker task order" `Quick test_worker_order;
      Alcotest.test_case "jit_worker empty queue" `Quick test_worker_empty;
      Alcotest.test_case "jit_worker exception capture" `Quick test_worker_exn;
      Alcotest.test_case "perflab determinism {1,2,4}" `Quick
        test_perflab_determinism;
      Alcotest.test_case "endpoints determinism {1,2,4}" `Quick
        test_endpoints_determinism;
      Alcotest.test_case "trace seq determinism {1,2,4}" `Quick
        test_trace_determinism;
      Alcotest.test_case "vmstats shard-merge exactness" `Quick
        test_vmstats_exact;
      Alcotest.test_case "vmstats: op counters exact across request workers"
        `Quick test_vmstats_exact_serving;
      Alcotest.test_case "vmstats: nested retranslate reaches the main domain"
        `Quick test_vmstats_nested_retranslate;
      Alcotest.test_case "trace: parallel emit keeps lines whole, seq unique"
        `Quick test_trace_parallel_emit;
      Alcotest.test_case "stress: requests x retranslate" `Quick
        test_stress_interleave;
      Alcotest.test_case "serving output parity {1,2,4}" `Quick
        test_serving_parity;
      Alcotest.test_case "serving: retranslate mid-burst @ 4 workers" `Quick
        test_serving_retranslate_stress;
      Alcotest.test_case "serving: code-budget exhaustion fallback" `Quick
        test_serving_budget_exhaustion;
      Alcotest.test_case "serving: sharded profile exactness" `Quick
        test_serving_prof_exact;
      Alcotest.test_case "serving: heap clean after parallel burst" `Quick
        test_serving_heap_clean;
      Alcotest.test_case "lazy: lease contention, one translation" `Quick
        test_lazy_lease_contention;
      Alcotest.test_case "lazy: incremental publish determinism {1,2,4}"
        `Quick test_serving_lazy_determinism;
      Alcotest.test_case "lazy: queue overflow falls back to interp" `Quick
        test_lazy_queue_overflow;
      Alcotest.test_case "epoch: one publisher, rows shared outside fids"
        `Quick test_publish_epoch_rows;
      Alcotest.test_case "codecache reset_optimized accounting" `Quick
        test_codecache_reset_accounting;
      Alcotest.test_case "codecache free/compact accounting" `Quick
        test_codecache_free_compact_accounting;
      Alcotest.test_case "lifecycle: evict+compact parity {1,2,4}" `Quick
        test_lifecycle_parity;
      Alcotest.test_case "lifecycle: mass eviction mid-chain-follow" `Quick
        test_lifecycle_evict_mid_chain;
      Alcotest.test_case "lifecycle: no victim entered after adoption"
        `Quick test_no_victim_entries;
      Alcotest.test_case "counts: per-domain execs and arcs fold exactly"
        `Quick test_counts_fold;
      Alcotest.test_case "exec: compaction refreshes fetch addresses" `Quick
        test_compaction_fetch_addresses;
      Alcotest.test_case "exec: minor words per Region request" `Quick
        test_exec_minor_words;
      Alcotest.test_case "exec: heap and ledger counts of a Region burst"
        `Quick test_burst_accounting;
      Alcotest.test_case "options: flag > env > default" `Quick
        test_resolve_precedence ] )
