(** The translation-request queue and write lease for lazy in-burst
    compilation (paper §4).

    HHVM request threads that miss in the translation cache acquire a
    global {e write lease} before translating: one thread compiles while
    the others keep executing, so the shared code cache has one writer
    and many readers.  This module is the concurrent-OCaml analogue: a
    domain that misses in its epoch enqueues a translation request
    (srckey + the live types the region selector would have observed)
    into a bounded atomic queue; whoever holds the lease — the requester
    itself when it wins the compare-and-swap, another serving domain, or
    a burst's dedicated drainer — drains it in queue order and compiles
    against the engine state the lease protects.  With one serving domain
    the lease is always free and every miss drains its own request at
    once.

    Determinism: slot indices are claimed with one [fetch_and_add]; the
    lease holder drains in index order, and the lease itself serializes
    every publish.  Translation ids, code-cache offsets and link smashes
    are therefore assigned in a canonical order per queue history,
    independent of which domain held the lease when.  (Per-request
    outputs never depend on dispatch order at all — endpoints are pure —
    so the serving output hash is identical whether a request enters
    compiled code or interprets.)

    The queue is a ring bounded by [capacity] requests in flight: the
    lease holder that drains it empty rewinds it.  Claims past the bound
    are counted as overflow and the requester simply interprets. *)

type request = {
  rq_fid : int;
  rq_pc : int;
  (** Most-precise types of the requester's locals and evaluation stack
      (stack indexed by depth: element [d] types [sp - 1 - d]): the
      region selector's oracle, in place of the requester's live frame. *)
  rq_locals : Hhbc.Rtype.t array;
  rq_stack : Hhbc.Rtype.t array;
  (** The (translation, exit id) the requester chained out of, if any:
      the lease holder smashes this bind jump when the compile lands. *)
  rq_via : (Translation.t * int) option;
}

let c_enqueued = Obs.Vmstats.counter "lazy_translate.enqueued"
let c_dedup = Obs.Vmstats.counter "lazy_translate.dedup"
let c_overflow = Obs.Vmstats.counter "lazy_translate.queue_overflow"
let c_acquire = Obs.Vmstats.counter "lease.acquire"
let c_contended = Obs.Vmstats.counter "lease.contended"

let default_capacity = 256

(* Slot-per-request ring: [tail] claims an index, the claimant publishes
   the request into its slot, and the lease holder consumes slots
   [drained, min tail capacity).  A slot is written once between two
   rewinds. *)
let slots : request option Atomic.t array ref =
  ref (Array.init default_capacity (fun _ -> Atomic.make None))

let tail = Atomic.make 0
let drained = Atomic.make 0

let capacity () = Array.length !slots

(** Reset the queue for a new burst, dropping anything a previous burst
    left undrained.  Quiescent points only (engine install / burst start,
    before any worker domain runs).  The ring size is preserved unless
    [capacity] is given: engine install passes [default_capacity]; tests
    shrink the ring to force overflow, and the burst-start reset keeps
    their choice. *)
let reset ?capacity () =
  (match capacity with
   | Some c when c <> Array.length !slots ->
     slots := Array.init c (fun _ -> Atomic.make None)
   | _ -> Array.iter (fun s -> Atomic.set s None) !slots);
  Atomic.set tail 0;
  Atomic.set drained 0

let has_pending () =
  Atomic.get drained < min (Atomic.get tail) (capacity ())

(** Published-but-undrained request count (a racy level read for the
    snapshot stream; exact when read single-domain). *)
let depth () =
  max 0 (min (Atomic.get tail) (capacity ()) - Atomic.get drained)

(* --- the write lease --- *)

let lease = Atomic.make false

(** One CAS attempt at the write lease; serving workers poll this on a
    miss and interpret when it fails. *)
let try_acquire () : bool =
  let won = Atomic.compare_and_set lease false true in
  if won then Obs.Vmstats.bump c_acquire else Obs.Vmstats.bump c_contended;
  won

(** Blocking acquire: retranslate-all must win the lease (it rewrites the
    tables the lease protects), waiting out at most one drain. *)
let acquire () =
  while not (Atomic.compare_and_set lease false true) do
    Domain.cpu_relax ()
  done;
  Obs.Vmstats.bump c_acquire

let release () = Atomic.set lease false

(** Is the write lease currently held? (snapshot gauge) *)
let lease_held () : bool = Atomic.get lease

(* --- enqueue / drain --- *)

let same_types (a : Hhbc.Rtype.t array) (b : Hhbc.Rtype.t array) : bool =
  Array.length a = Array.length b && Array.for_all2 Hhbc.Rtype.equal a b

(* Already queued and not yet drained?  Advisory — two racing enqueuers
   can both miss a duplicate in flight; the lease holder re-checks the
   translation chain before compiling, which is the authoritative dedup. *)
let queued ~(fid : int) ~(pc : int) ~(locals : Hhbc.Rtype.t array)
    ~(stack : Hhbc.Rtype.t array) : bool =
  let n = min (Atomic.get tail) (capacity ()) in
  let found = ref false in
  let i = ref (Atomic.get drained) in
  while (not !found) && !i < n do
    (match Atomic.get !slots.(!i) with
     | Some rq ->
       if rq.rq_fid = fid && rq.rq_pc = pc
          && same_types rq.rq_locals locals
          && same_types rq.rq_stack stack
       then found := true
     | None -> ());
    incr i
  done;
  !found

(** Enqueue a translation request.  Returns [false] on overflow (the ring
    is full: interpret and move on); duplicate in-flight requests for the
    same srckey and types are dropped. *)
let enqueue ~(fid : int) ~(pc : int) ~(locals : Hhbc.Rtype.t array)
    ~(stack : Hhbc.Rtype.t array)
    ~(via : (Translation.t * int) option) : bool =
  if queued ~fid ~pc ~locals ~stack then begin
    Obs.Vmstats.bump c_dedup;
    true
  end else begin
    let i = Atomic.fetch_and_add tail 1 in
    if i >= capacity () then begin
      Obs.Vmstats.bump c_overflow;
      false
    end else begin
      Atomic.set !slots.(i)
        (Some { rq_fid = fid; rq_pc = pc;
                rq_locals = locals; rq_stack = stack; rq_via = via });
      Obs.Vmstats.bump c_enqueued;
      true
    end
  end

(** Consume every published request in queue order.  Lease holder only.
    Returns the number of requests consumed; requests claimed after the
    drain snapshot are left for the next holder.  A drain that empties
    the ring rewinds it: the slots are cleared first, then [tail] moves
    back to 0 only if nobody claimed a slot meanwhile (a late claimant
    keeps its index, and the cleared slots lie below [drained]).  Claims
    past a full ring hold no slot, so they never block the rewind. *)
let drain (f : request -> unit) : int =
  let consumed = ref 0 in
  let t = min (Atomic.get tail) (capacity ()) in
  let h = ref (Atomic.get drained) in
  while !h < t do
    match Atomic.get !slots.(!h) with
    | Some rq ->
      f rq;
      incr h;
      incr consumed;
      Atomic.set drained !h
    | None ->
      (* index claimed but the request not yet published: the claimant
         is mid-store, wait it out *)
      Domain.cpu_relax ()
  done;
  let tl = Atomic.get tail in
  if t > 0 && (tl = t || t = capacity ()) then begin
    for i = 0 to t - 1 do Atomic.set !slots.(i) None done;
    if Atomic.compare_and_set tail tl 0 then Atomic.set drained 0
  end;
  !consumed
