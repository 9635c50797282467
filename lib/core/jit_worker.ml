(** Work queue for the parallel retranslate-all compile phase (§5.1).

    [run ~workers tasks] executes every task exactly once.  With
    [workers = 1] the calling domain runs a serial loop through the same
    machinery — the historical synchronous behavior, where the whole
    compile burst stalls the caller.  With [workers >= 2] the burst is
    offloaded: [min workers n] background domains claim and run every
    task while the calling (main) domain only waits for the join, mirroring
    HHVM's pool of background JIT worker threads — in a server the main
    thread keeps serving requests during this window, so only the serial
    publish that follows is a stall.  Tasks are claimed from a single
    atomic cursor, so scheduling is work-stealing-free and
    allocation-free; the task bodies must be read-only with respect to
    shared engine state — they compile into private buffers, and the
    caller publishes results serially afterwards.

    Task bodies use the normal observability probes:

    - Vmstats: a background domain counts into its own domain-local
      values; after the join they are absorbed into the calling domain's,
      so counter totals are exact for any schedule.  When the caller is
      itself a serving worker (it fired the retranslate-all), its own
      join carries the counts on to the main domain.
    - Trace: each task gets a private event buffer; the buffers are
      flushed in task order after the join, when sequence numbers are
      assigned — trace output is therefore identical for any worker count
      and any schedule.

    Results are returned in task order.  A task that raises aborts nothing
    else: the exception is captured, the remaining tasks still run, and
    the first (lowest-index) exception is re-raised after the join once
    counters and trace buffers are merged. *)

let run ~(workers : int) (tasks : (unit -> 'r) array) : 'r array =
  let n = Array.length tasks in
  if n = 0 then [||]
  else begin
    let results : ('r, exn) result option array = Array.make n None in
    let tracebufs = Array.make n Obs.Trace.empty_buffer in
    let next = Atomic.make 0 in
    (* distinct array slots per task: no two domains touch the same cell *)
    let worker_loop () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false
        else begin
          Obs.Trace.buffer_begin ();
          let r = try Ok (tasks.(i) ()) with e -> Error e in
          tracebufs.(i) <- Obs.Trace.buffer_take ();
          results.(i) <- Some r
        end
      done
    in
    if workers <= 1 then worker_loop ()
    else begin
      let w = min workers n in
      Array.init w (fun _ ->
          Domain.spawn (fun () -> worker_loop (); Obs.Vmstats.local ()))
      |> Array.iter (fun d -> Obs.Vmstats.absorb (Domain.join d))
    end;
    Array.iter Obs.Trace.flush_buffered tracebufs;
    Array.map
      (function
        | Some (Ok r) -> r
        | Some (Error e) -> raise e
        | None -> assert false)
      results
  end

(** Dedicated lazy-translation drainer: the "background JIT worker"
    variant of the write lease.  Runs on its own domain for the duration
    of a serving burst, competing for the lease with the serve workers'
    opportunistic CAS — whoever wins compiles; the rest keep serving.
    [drain] is called with the lease held ([Engine.drain_translation_queue]
    partially applied by the scheduler; this module sits below the engine
    and never sees its type).  Polls with a backoff sleep so an idle
    drainer yields its timeslice instead of spinning — on the 1-core CI
    host the serve workers need it far more than the poll loop does. *)
let drain_loop ~(stop : bool Atomic.t) ~(drain : unit -> unit) : unit =
  while not (Atomic.get stop) do
    if Translate_queue.has_pending () && Translate_queue.try_acquire () then
      Fun.protect ~finally:Translate_queue.release drain
    else begin
      Domain.cpu_relax ();
      Unix.sleepf 2e-4
    end
  done
