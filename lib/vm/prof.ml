(** Profiling data gathered by profiling translations (paper §4.1).

    - Per-translation execution counters, incremented by the counter the
      profiling JIT inserts after the type guards (item 3 of §4.1).  Since
      profiling tracelets are type-specialized basic blocks, these counters
      simultaneously give the type distribution of each block's inputs and
      the block execution frequencies.
    - Targeted profiles (item 4): method-call receiver classes per call
      site, used by the method-dispatch optimization (§5.3.3), and function
      call counts used by function sorting (§5.1.1).
    - TransCFG arc weights (§5.2.1): control transfers between profiling
      blocks, keyed by the packed (src, dst) block-id pair.  The block
      registry itself is {!Region.Transcfg}'s.

    {b Per-domain writes in parallel serving.}  The canonical profile lives
    in one main context; every consumer of the profile (region formation,
    C3 sorting, profile-guided dispatch) reads it.  Hot-path {e writes}
    route through a domain-local write context: on the main domain that is
    the main context itself (the historical single-domain behavior, zero
    indirection beyond one DLS read), while request-serving worker domains
    install a private context ({!install_local}) so profiling translations
    racing on N domains never touch a shared hashtable.  Workers drain
    their context into a mutex-guarded pending accumulator at request
    boundaries ({!flush_local}); the retranslate-all trigger folds the
    accumulator into the canonical profile ({!merge_pending}) before it
    scans the profile — counter merges commute, so totals are exact for
    any worker count or schedule. *)

type counter_id = int

(* structural profile version: bumped when a new call site, call-graph
   edge, or receiver class is first observed — not on weight bumps of
   existing entries.  Retranslate-all keys its derived-structure cache
   (C3 size table, resolved method-edge list) on this, so repeated
   retranslations skip re-scanning an unchanged profile shape.  Merging a
   worker's context bumps it only for entries the canonical profile had
   never seen, preserving that contract. *)
let version_ = ref 0
let version () = !version_

type callsite = { cs_func : int; cs_pc : int }

type ctx = {
  mutable px_counters : int array;
  px_method_targets : (callsite, (int, int) Hashtbl.t) Hashtbl.t;
  (* method name per call site, so the call graph can resolve edges *)
  px_method_names : (callsite, string) Hashtbl.t;
  (* dynamic call-graph edges (caller -> callee), for C3 sorting *)
  px_call_edges : (int * int, int) Hashtbl.t;
  (* per-function entry counts (hotness): bumped on *every* PHP-level
     call, so a dense array rather than a hashtable *)
  mutable px_func_entries : int array;
  (* TransCFG arc weights, by [arc_key]: an immediate int key, so an arc
     bump hashes no tuple *)
  px_arcs : (int, int ref) Hashtbl.t;
}

let fresh_ctx () : ctx =
  { px_counters = Array.make 1024 0;
    px_method_targets = Hashtbl.create 64;
    px_method_names = Hashtbl.create 64;
    px_call_edges = Hashtbl.create 256;
    px_func_entries = Array.make 256 0;
    px_arcs = Hashtbl.create 256 }

(** The canonical profile: all reads, and main-domain writes. *)
let main_ctx : ctx = fresh_ctx ()

(* The domain's write target; main context unless a worker installed a
   private one.  Worker contexts mirror the counter-id space. *)
let write_key : ctx Domain.DLS.key = Domain.DLS.new_key (fun () -> main_ctx)

let wctx () : ctx = Domain.DLS.get write_key

(** Give this domain a private write context (request-serving workers). *)
let install_local () = Domain.DLS.set write_key (fresh_ctx ())

let uninstall_local () = Domain.DLS.set write_key main_ctx

(* --- counters --- *)

(* Counter ids were historically allocated from the main domain only
   (profiling compiles never ran on serving workers).  Lazy in-burst
   translation moved profiling compiles under the write lease, which can
   be held by any serving domain — the lease serializes allocations, but
   an atomic id source keeps the allocator safe on its own terms rather
   than by protocol. *)
let n_counters = Atomic.make 0

let ensure_counter (c : ctx) (id : int) =
  if id >= Array.length c.px_counters then begin
    let n = ref (max 1024 (Array.length c.px_counters)) in
    while id >= !n do n := 2 * !n done;
    let bigger = Array.make !n 0 in
    Array.blit c.px_counters 0 bigger 0 (Array.length c.px_counters);
    c.px_counters <- bigger
  end

let new_counter () : counter_id =
  let id = Atomic.fetch_and_add n_counters 1 in
  ensure_counter main_ctx id;
  id

(** Count through a write context the caller fetched with {!wctx}: a
    profiling translation's run reads it once. *)
let incr_counter_on (c : ctx) (id : counter_id) =
  ensure_counter c id;
  c.px_counters.(id) <- c.px_counters.(id) + 1

let read_counter (id : counter_id) =
  if id < Array.length main_ctx.px_counters then main_ctx.px_counters.(id)
  else 0

(* --- method-call receiver profiles, keyed by (func, bytecode pc) --- *)

let record_method_target ?(mname : string option) ~(func : int) ~(pc : int)
    ~(cls : int) () =
  let c = wctx () in
  let key = { cs_func = func; cs_pc = pc } in
  (match mname with
   | Some n ->
     if not (Hashtbl.mem c.px_method_names key) && c == main_ctx then
       incr version_;
     Hashtbl.replace c.px_method_names key n
   | None -> ());
  (* cls < 0 registers the call site (name) without counting a receiver *)
  if cls >= 0 then begin
    let tbl =
      match Hashtbl.find_opt c.px_method_targets key with
      | Some t -> t
      | None ->
        let t = Hashtbl.create 4 in
        Hashtbl.replace c.px_method_targets key t;
        t
    in
    (match Hashtbl.find_opt tbl cls with
     | Some n -> Hashtbl.replace tbl cls (n + 1)
     | None ->
       if c == main_ctx then incr version_;
       Hashtbl.replace tbl cls 1)
  end

(** (caller, mname, receiver-class, weight) tuples for call-graph edges. *)
let method_edges () : (int * string * int * int) list =
  Hashtbl.fold
    (fun key tbl acc ->
       match Hashtbl.find_opt main_ctx.px_method_names key with
       | Some mname ->
         Hashtbl.fold (fun cls w acc -> (key.cs_func, mname, cls, w) :: acc) tbl acc
       | None -> acc)
    main_ctx.px_method_targets []

(** Receiver-class distribution for a call site, heaviest first. *)
let method_target_dist ~(func : int) ~(pc : int) : (int * int) list =
  match Hashtbl.find_opt main_ctx.px_method_targets
          { cs_func = func; cs_pc = pc } with
  | None -> []
  | Some t ->
    Hashtbl.fold (fun cls n acc -> (cls, n) :: acc) t []
    |> List.sort (fun (_, a) (_, b) -> compare b a)

let record_call ~(caller : int) ~(callee : int) =
  let c = wctx () in
  let k = (caller, callee) in
  match Hashtbl.find_opt c.px_call_edges k with
  | Some n -> Hashtbl.replace c.px_call_edges k (n + 1)
  | None ->
    if c == main_ctx then incr version_;
    Hashtbl.replace c.px_call_edges k 1

let call_graph () : ((int * int) * int) list =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) main_ctx.px_call_edges []

(* --- per-function entry counts --- *)

let record_func_entry (fid : int) =
  let c = wctx () in
  let a = c.px_func_entries in
  if fid < Array.length a then a.(fid) <- a.(fid) + 1
  else begin
    let bigger = Array.make (max (fid + 1) (2 * Array.length a)) 0 in
    Array.blit a 0 bigger 0 (Array.length a);
    bigger.(fid) <- 1;
    c.px_func_entries <- bigger
  end

let func_entry_count (fid : int) =
  let a = main_ctx.px_func_entries in
  if fid < Array.length a then a.(fid) else 0

(* --- TransCFG arcs --- *)

let arc_key ~(src : int) ~(dst : int) : int = (src lsl 31) lor dst
let arc_unkey (k : int) : int * int = (k lsr 31, k land 0x7FFF_FFFF)

let c_arc_events = Obs.Vmstats.counter "region.arc_events"

(** Count one transfer from profiling block [src] to [dst] in this
    domain's write context. *)
let record_arc ~(src : int) ~(dst : int) =
  Obs.Vmstats.bump c_arc_events;
  let c = wctx () in
  let key = arc_key ~src ~dst in
  match Hashtbl.find c.px_arcs key with
  | r -> incr r
  | exception Not_found -> Hashtbl.replace c.px_arcs key (ref 1)

(** Fold over the canonical profile's arcs: [f src dst weight acc]. *)
let fold_arcs (f : int -> int -> int -> 'a -> 'a) (acc : 'a) : 'a =
  Hashtbl.fold
    (fun k w acc -> let s, d = arc_unkey k in f s d !w acc)
    main_ctx.px_arcs acc

(** Drop every canonical arc with an endpoint that [dead] names. *)
let prune_arcs (dead : int -> bool) : unit =
  let keys =
    Hashtbl.fold
      (fun k _ acc ->
         let s, d = arc_unkey k in
         if dead s || dead d then k :: acc else acc)
      main_ctx.px_arcs []
  in
  List.iter (Hashtbl.remove main_ctx.px_arcs) keys

(* --- per-domain accumulation and merge --- *)

let clear_ctx (c : ctx) =
  Array.fill c.px_counters 0 (Array.length c.px_counters) 0;
  Hashtbl.reset c.px_method_targets;
  Hashtbl.reset c.px_method_names;
  Hashtbl.reset c.px_call_edges;
  Array.fill c.px_func_entries 0 (Array.length c.px_func_entries) 0;
  Hashtbl.reset c.px_arcs

(* Additive merge of [src] into [dst].  [bump_version] marks structural
   novelty against the canonical profile (merge_pending); accumulating a
   worker flush into the pending accumulator never touches the version. *)
let merge_into (dst : ctx) ~(bump_version : bool) (src : ctx) =
  Array.iteri
    (fun id n ->
       if n <> 0 then begin
         ensure_counter dst id;
         dst.px_counters.(id) <- dst.px_counters.(id) + n
       end)
    src.px_counters;
  Hashtbl.iter
    (fun key name ->
       if not (Hashtbl.mem dst.px_method_names key) then begin
         if bump_version then incr version_;
         Hashtbl.replace dst.px_method_names key name
       end)
    src.px_method_names;
  Hashtbl.iter
    (fun key tbl ->
       let d =
         match Hashtbl.find_opt dst.px_method_targets key with
         | Some d -> d
         | None ->
           let d = Hashtbl.create 4 in
           Hashtbl.replace dst.px_method_targets key d;
           d
       in
       Hashtbl.iter
         (fun cls w ->
            match Hashtbl.find_opt d cls with
            | Some w0 -> Hashtbl.replace d cls (w0 + w)
            | None ->
              if bump_version then incr version_;
              Hashtbl.replace d cls w)
         tbl)
    src.px_method_targets;
  Hashtbl.iter
    (fun k w ->
       match Hashtbl.find_opt dst.px_call_edges k with
       | Some w0 -> Hashtbl.replace dst.px_call_edges k (w0 + w)
       | None ->
         if bump_version then incr version_;
         Hashtbl.replace dst.px_call_edges k w)
    src.px_call_edges;
  Array.iteri
    (fun fid n ->
       if n <> 0 then begin
         let a = dst.px_func_entries in
         if fid >= Array.length a then begin
           let bigger = Array.make (max (fid + 1) (2 * Array.length a)) 0 in
           Array.blit a 0 bigger 0 (Array.length a);
           dst.px_func_entries <- bigger
         end;
         dst.px_func_entries.(fid) <- dst.px_func_entries.(fid) + n
       end)
    src.px_func_entries;
  (* arcs go in in key order, the order a jumpstart import has always
     replayed them in, so an imported table folds in that same order *)
  Hashtbl.fold (fun k w acc -> (k, !w) :: acc) src.px_arcs []
  |> List.sort compare
  |> List.iter (fun (k, w) ->
      match Hashtbl.find_opt dst.px_arcs k with
      | Some r -> r := !r + w
      | None -> Hashtbl.replace dst.px_arcs k (ref w))

(* Profile deltas flushed by workers, awaiting the retranslate trigger. *)
let pending : ctx = fresh_ctx ()
let pending_mutex = Mutex.create ()

let locked (f : unit -> 'a) : 'a =
  Mutex.lock pending_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock pending_mutex) f

(** Drain this domain's private profile into the pending accumulator
    (request boundary on a serving worker; no-op on the main domain). *)
let flush_local () =
  let c = wctx () in
  if c != main_ctx then begin
    locked (fun () -> merge_into pending ~bump_version:false c);
    clear_ctx c
  end

(** Fold every flushed worker delta into the canonical profile.  Called by
    the retranslate-all trigger before it scans the profile, and by the
    scheduler after joining a serving burst. *)
let merge_pending () =
  locked (fun () ->
      merge_into main_ctx ~bump_version:true pending;
      clear_ctx pending)

(* --- serialization (jumpstart, paper §6.2) --- *)

(** A self-contained copy of the canonical profile.  The [ctx] record is
    plain data (arrays, hashtables, ints — no closures), so an export is
    Marshal-safe; it is a deep copy, so later profiling in this process
    cannot leak into a saved image. *)
type export = {
  ex_ctx : ctx;
  ex_n_counters : int;
}

let export () : export =
  let c = fresh_ctx () in
  merge_into c ~bump_version:false main_ctx;
  { ex_ctx = c; ex_n_counters = Atomic.get n_counters }

(** Replace the canonical profile with a deserialized export (fresh-
    process jumpstart; the engine install that precedes adoption has
    already [reset] it).  The counter-id allocator resumes past the
    imported ids, and the structural version bumps so any cached derived
    structure (C3 tables) rebuilds against the imported shape. *)
let import (e : export) : unit =
  clear_ctx main_ctx;
  merge_into main_ctx ~bump_version:false e.ex_ctx;
  if e.ex_n_counters > 0 then ensure_counter main_ctx (e.ex_n_counters - 1);
  Atomic.set n_counters e.ex_n_counters;
  incr version_

let reset () =
  incr version_;
  clear_ctx main_ctx;
  main_ctx.px_counters <- Array.make 1024 0;
  main_ctx.px_func_entries <- Array.make 256 0;
  Atomic.set n_counters 0;
  locked (fun () -> clear_ctx pending)
