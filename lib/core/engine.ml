(** The JIT engine (paper §4, Fig. 5): translation cache, compilation modes,
    OSR side-exit handling, retranslate-all, and function sorting.

    Execution model: every PHP-level call goes through {!call_func}, which
    tries to enter compiled code at the function entry; the interpreter
    consults {!try_enter} at taken jumps.  Compiled code leaves through
    ReqBind exits, which either chain directly into another translation
    (translation linking / retranslation chains) or resume the interpreter
    with the VM state the exit spec describes — including materializing
    partially-inlined callee frames (§5.3.1).

    One dispatch path serves every domain (§2, §5.1: all request threads
    run out of one published code cache).  The compile side writes the
    live tables under the write lease and publishes them as an immutable
    {!epoch}; every domain dispatches through its own {!dctx} — its
    pinned epoch, its SimCPU machine, its monomorphic entry caches.  A
    miss enqueues a translation request and tries the lease; the winner
    drains the queue, adopts the epoch it just published (unless a
    retranslate-all moved the generation meanwhile) and enters its new
    code.  Bind jumps are smashed only under the lease.  With one serving
    domain the lease is always free, so every miss compiles inline. *)

open Runtime.Value
module Rd = Region.Rdesc

type phase = PProfiling | POptimized

(** Per-srckey translation slot: the retranslation chain as a growable
    array (publish is O(1) amortized and keeps insertion order — no list
    re-walk per publish). *)
type slot = {
  mutable sl_chain : Translation.t array;  (* first [sl_len] are live *)
  mutable sl_len : int;
}

(** An immutable published snapshot of the dispatch state (paper §5.1's
    publish step): the srckey tables and retranslation chains frozen at a
    publish point, plus the translation-link generation and the huge-page
    mapping of the hot section that were current then.  The engine swaps
    the published epoch with one atomic store; a domain dispatches against
    the epoch it pinned and adopts the latest one at its next request
    boundary, so a request racing a retranslate-all runs entirely on the
    old generation or entirely on the new one — never on a half-published
    chain.  Slots are private trimmed copies, so later compile-side
    mutation cannot leak into a published view. *)
type epoch = {
  ep_seq : int;                            (* publish sequence number *)
  ep_gen : int;                            (* link generation at publish *)
  ep_trans : slot option array array;
  ep_huge : bool;                          (* hot-section huge-page map *)
  ep_main_lo : int;
  ep_main_hi : int;
  (* (seq, fid, pc) of each srckey whose chain an eviction shrank in this
     generation, newest first: a domain adopting past [seq] drops its
     monomorphic entry there, so it never enters a victim *)
  ep_pruned : (int * int * int) list;
}

let empty_epoch : epoch =
  { ep_seq = 0; ep_gen = 0; ep_trans = [||];
    ep_huge = false; ep_main_lo = 0; ep_main_hi = 0; ep_pruned = [] }

(** Monomorphic last-hit entry caches, dense by (fid, pc): re-entry
    validates only the cached entry's guards before falling back to the
    full chain walk. *)
type mono = (Translation.t * Translation.entry) option array array

(** A domain's dispatch context: its pinned epoch, its SimCPU machine
    (i-cache, I-TLB, inline caches, per-translation counts) and its mono
    caches, which mirror the epoch's slot dimensions.  The main domain's
    wraps the engine's own machine; a serving worker's lives in
    domain-local storage. *)
type dctx = {
  dx_machine : Exec.machine;
  mutable dx_epoch : epoch;
  mutable dx_mono : mono;
}

(** Retranslate-all sort inputs derived from the profile (C3 size table
    and resolved method-call edges).  Computing them re-scans the profile
    and resolves method names through the class table, so they are cached
    across repeated retranslations, keyed on the structural versions of
    the TransCFG registry and the profile — weight-only growth reuses the
    cache; new blocks, call sites or edges invalidate it. *)
type sort_cache = {
  sc_tcfg_version : int;
  sc_prof_version : int;
  sc_sizes : (int, int) Hashtbl.t;         (* fid -> size estimate *)
  sc_medges : ((int * int) * int) list;    (* resolved method-call edges *)
}

type t = {
  opts : Jit_options.t;
  hunit : Hhbc.Hunit.t;
  machine : Exec.machine;
  cache : Simcpu.Codecache.t;
  (* the live tables, written under the write lease and published as
     epochs.  Dense per-function translation tables indexed by srckey pc:
     trans.(fid).(pc) is the slot for that srckey (O(1), allocation-free
     lookup — no tuple hashing on the dispatch path) *)
  mutable trans : slot option array array;
  (* srckeys where compilation failed / budget exhausted: don't retry *)
  mutable nocompile : bool array array;
  (* bumped by retranslate-all; stale translation links (and anything else
     that caches a pre-reset translation) die by generation mismatch *)
  mutable generation : int;
  mutable phase : phase;
  mutable optimized_published : bool;
  (* stats *)
  mutable n_live : int;
  mutable n_profiling : int;
  mutable n_optimized : int;
  mutable opt_bytes : int;
  mutable compile_count : int;
  mutable sort_cache : sort_cache option;
  (* the last optimized publish sequence (retranslate-all or jumpstart
     adoption), prepared + placed forms aligned in publish order: the
     capture source for jumpstart images (§6.2) *)
  mutable last_opt : (Translation.prepared * int * Translation.t) array;
  (* the epoch every domain dispatches against; swapped with a single
     atomic store by [publish_epoch] *)
  published : epoch Atomic.t;
  (* the main domain's dispatch context, made on first use *)
  mutable main_ctx : dctx option;
}

(* a serving worker's own dispatch context; [None] on the main domain *)
let ctx_key : dctx option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(* ------------------------------------------------------------------ *)
(* Telemetry handles (registered once, bumped through the handle)      *)
(* ------------------------------------------------------------------ *)

let c_mono_hit = Obs.Vmstats.counter "dispatch.mono_hit"
let c_mono_miss = Obs.Vmstats.counter "dispatch.mono_miss"
let c_chain_hit = Obs.Vmstats.counter "dispatch.chain_hit"
let c_chain_miss = Obs.Vmstats.counter "dispatch.chain_miss"
let h_chain_len = Obs.Vmstats.histogram "dispatch.chain_len"
let c_link_follow = Obs.Vmstats.counter "link.follow"
let c_link_smashed = Obs.Vmstats.counter "link.smashed"
let c_link_stale = Obs.Vmstats.counter "link.stale"
let c_link_invalidated = Obs.Vmstats.counter "link.invalidated"
let c_guard_fail = Obs.Vmstats.counter "guard.fail"
let c_exit_bind = Obs.Vmstats.counter "exit.bind"
let c_exit_interp = Obs.Vmstats.counter "exit.interp_anchor"
let c_exit_inline = Obs.Vmstats.counter "exit.inline"
let c_exit_return = Obs.Vmstats.counter "exit.return"
let c_exit_unwind = Obs.Vmstats.counter "exit.unwind"
let c_tr_live = Obs.Vmstats.counter "translate.live"
let c_tr_prof = Obs.Vmstats.counter "translate.profiling"
let c_tr_opt = Obs.Vmstats.counter "translate.optimized"
let c_tr_rejected = Obs.Vmstats.counter "translate.rejected"
let h_tr_bytes = Obs.Vmstats.histogram "translate.bytes"
let c_retranslate = Obs.Vmstats.counter "retranslate.runs"
(* pause of the last retranslate-all: the main-domain stall, i.e. the
   window during which the engine serves no requests.  With one worker
   the compile burst runs inline on the main domain, so the stall covers
   sort + invalidation + compile + publish (the historical serial
   behavior); with [jit_workers >= 2] the burst runs on background
   domains while the main thread would keep serving (cf. server/startup),
   so the stall is only the serial prologue + publish.  The full burst
   wall time is always recorded separately as [retranslate.compile].
   Both record seconds, like every timer. *)
let t_pause = Obs.Vmstats.timer "retranslate.pause"
let t_compile = Obs.Vmstats.timer "retranslate.compile"
(* dispatch misses in a domain's epoch, and the activations that ended
   in the interpreter (lazy translation absorbs the difference) *)
let c_serving_miss = Obs.Vmstats.counter "serving.translation_miss"
let c_serving_fallback = Obs.Vmstats.counter "serving.interp_fallback"
(* lazy translation under the write lease *)
let c_lazy_compiled = Obs.Vmstats.counter "lazy_translate.compiled"
let c_lazy_covered = Obs.Vmstats.counter "lazy_translate.covered"
let c_lazy_entered = Obs.Vmstats.counter "lazy_translate.entered"
let c_epoch_delta = Obs.Vmstats.counter "epoch.delta_publish"
(* code-cache lifecycle: liveness-driven eviction and compaction *)
let c_tc_evicted = Obs.Vmstats.counter "tc.evicted"
let c_tc_evicted_bytes = Obs.Vmstats.counter "tc.evicted_bytes"
let c_tc_evict_runs = Obs.Vmstats.counter "tc.evict_runs"
let c_tc_compact_runs = Obs.Vmstats.counter "tc.compact_runs"

(* ------------------------------------------------------------------ *)
(* Translation tables                                                  *)
(* ------------------------------------------------------------------ *)

(* A dense table over the unit's srckeys, every cell [v]: one row per
   function, one cell per pc plus one.  A unit gains no functions after
   install, so the tables never grow. *)
let fresh_rows (u : Hhbc.Hunit.t) (v : 'a) : 'a array array =
  Array.init (Hhbc.Hunit.num_funcs u) (fun fid ->
      Array.make
        (Array.length (Hhbc.Hunit.func u fid).Hhbc.Instr.fn_body + 1) v)

(** Slot lookup in a dense srckey table: the live [eng.trans] or an
    epoch's [ep_trans]. *)
let slot_at (tbl : slot option array array) (fid : int) (pc : int)
  : slot option =
  if fid < Array.length tbl then
    let row = tbl.(fid) in
    if pc < Array.length row then row.(pc) else None
  else None

let get_or_create_slot (eng : t) (fid : int) (pc : int) : slot =
  match eng.trans.(fid).(pc) with
  | Some sl -> sl
  | None ->
    let sl = { sl_chain = [||]; sl_len = 0 } in
    eng.trans.(fid).(pc) <- Some sl;
    sl

let no_compile (eng : t) (fid : int) (pc : int) : bool =
  eng.nocompile.(fid).(pc)

let mark_no_compile (eng : t) (fid : int) (pc : int) : unit =
  eng.nocompile.(fid).(pc) <- true

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

(* simulated JIT-time cost charged for live/profiling compilation (the
   optimized pass runs on background threads and is not charged, §6.2) *)
let live_compile_cycles n = 400 + 90 * n
let prof_compile_cycles n = 300 + 60 * n

let weights_for ?(snapshot : Region.Transcfg.snapshot option)
    (lowered : Hhir.Lower.lowered) : (int, int) Hashtbl.t =
  let block_of, weight_of =
    match snapshot with
    | Some sn -> Region.Transcfg.snap_block sn, Region.Transcfg.snap_weight sn
    | None -> Region.Transcfg.block, Region.Transcfg.block_weight
  in
  let w = Hashtbl.create 16 in
  List.iter
    (fun (rbid, irid) ->
       Hashtbl.replace w irid (max 1 (weight_of (block_of rbid))))
    lowered.lw_blockmap;
  w

(** The compile phase of a translation: region -> HHIR -> passes -> vasm
    -> register allocation -> prepared (section-relative) code.  Touches
    no engine or code-cache state, so retranslate-all runs it on worker
    domains; [snapshot] supplies block weights there (the canonical
    profile keeps moving while requests serve).  Returns the prepared translation
    and the region's block count (trace metadata for publish). *)
let prepare_region (eng : t) ~(snapshot : Region.Transcfg.snapshot option)
    ~(fid : int) ~(region : Rd.t) ~(kind : Translation.kind)
  : Translation.prepared * int =
  let mode = match kind with
    | Translation.KLive -> Hhir.Lower.Live
    | Translation.KProfiling -> Hhir.Lower.Profiling
    | Translation.KOptimized -> Hhir.Lower.Optimized
  in
  let lopts = Jit_options.lower_options eng.opts in
  let lowered =
    Hhir.Lower.lower_region eng.hunit ~func_id:fid ~region ~mode ~opts:lopts
  in
  Hhir.Verify.verify lowered.lw_ir;
  ignore (Hhir_opt.Pipeline.run ~mode ~opts:lopts lowered.lw_ir);
  Hhir.Verify.verify lowered.lw_ir;
  let weights =
    if kind = Translation.KOptimized then weights_for ?snapshot lowered
    else begin
      (* no profile: entry blocks weight 1; stubs 0 *)
      let w = Hashtbl.create 8 in
      List.iter (fun (_, irid) -> Hashtbl.replace w irid 1) lowered.lw_blockmap;
      w
    end
  in
  let prog = Vasm.Vlower.lower lowered.lw_ir ~weights in
  let pgo = kind = Translation.KOptimized && eng.opts.pgo_layout in
  let prog, sections = Vasm.Layout.run ~pgo prog in
  let prog = Vasm.Jumpopt.run prog in
  let ra = Vasm.Regalloc.run prog ~nregs:eng.opts.nregs in
  let entry_block = Rd.entry region in
  (Translation.prepare ~fid ~srckey:entry_block.b_start ~kind ~ra ~sections
     ~entries:lowered.lw_entries,
   List.length region.Rd.r_blocks)

(** The publish half: place the prepared translation in the code cache and
    account for it.  Serial, write-lease holder only — code-cache offsets,
    translation ids and trace sequence numbers are assigned here, in
    whatever order the caller dictates. *)
let finish_translation (eng : t) ((pr : Translation.prepared), (nblocks : int))
  : Translation.t option =
  eng.compile_count <- eng.compile_count + 1;
  match Translation.place ~cache:eng.cache pr with
  | Some tr as res ->
    (match tr.Translation.tr_kind with
     | Translation.KLive -> Obs.Vmstats.bump c_tr_live
     | Translation.KProfiling -> Obs.Vmstats.bump c_tr_prof
     | Translation.KOptimized -> Obs.Vmstats.bump c_tr_opt);
    Obs.Vmstats.observe h_tr_bytes tr.Translation.tr_bytes;
    if Obs.Trace.on Obs.Trace.Translate then
      Obs.Trace.emit Obs.Trace.Translate
        [ ("tr", Obs.Trace.I tr.Translation.tr_id);
          ("fid", Obs.Trace.I tr.Translation.tr_fid);
          ("srckey", Obs.Trace.I tr.Translation.tr_srckey);
          ("kind", Obs.Trace.S (Translation.kind_name tr.Translation.tr_kind));
          ("bytes", Obs.Trace.I tr.Translation.tr_bytes);
          ("blocks", Obs.Trace.I nblocks) ];
    res
  | None ->
    (* code budget exhausted: the caller marks the srckey no-compile *)
    Obs.Vmstats.bump c_tr_rejected;
    None

let publish (eng : t) (tr : Translation.t) =
  let sl = get_or_create_slot eng tr.tr_fid tr.tr_srckey in
  if sl.sl_len = Array.length sl.sl_chain then begin
    let bigger = Array.make (max 2 (2 * sl.sl_len)) tr in
    Array.blit sl.sl_chain 0 bigger 0 sl.sl_len;
    sl.sl_chain <- bigger
  end;
  sl.sl_chain.(sl.sl_len) <- tr;
  sl.sl_len <- sl.sl_len + 1

(** Lazily compile a live or profiling translation at (fid, pc), reading
    input types through [oracle] — the type vectors a translation request
    captured when its domain missed.  Write-lease holder only: it is the
    single compile-side writer. *)
let compile_at (eng : t) ~(fid : int) ~(pc : int)
    ~(oracle : Rd.loc -> Hhbc.Rtype.t) : Translation.t option =
  if no_compile eng fid pc then None
  else begin
    let kind =
      match eng.opts.mode, eng.phase with
      | Jit_options.Interp, _ -> assert false
      | Jit_options.Tracelet, _ -> Translation.KLive
      | Jit_options.ProfileOnly, _ -> Translation.KProfiling
      | Jit_options.Region, PProfiling -> Translation.KProfiling
      | Jit_options.Region, POptimized -> Translation.KLive
    in
    let counter =
      if kind = Translation.KProfiling then Some (Vm.Prof.new_counter ())
      else None
    in
    let smode = match kind with
      | Translation.KProfiling -> Region.Select.MProfiling
      | _ -> Region.Select.MLive
    in
    let block =
      Region.Select.select eng.hunit ~func_id:fid ~start:pc ~mode:smode
        ~oracle ?counter ()
    in
    if block.b_len = 0 then begin
      mark_no_compile eng fid pc;
      None
    end else begin
      if kind = Translation.KProfiling then
        Region.Transcfg.register_block block;
      let region = Region.Form.single block in
      (* live translations are guard-relaxed using constraints only;
         profiling translations are never relaxed (§5.2.2) *)
      let region =
        if kind = Translation.KLive && eng.opts.guard_relax
        then Region.Relax.run region
        else region
      in
      match
        finish_translation eng
          (prepare_region eng ~snapshot:None ~fid ~region ~kind)
      with
      | Some tr ->
        let cc =
          if kind = Translation.KLive then begin
            eng.n_live <- eng.n_live + 1;
            live_compile_cycles block.b_len
          end else begin
            eng.n_profiling <- eng.n_profiling + 1;
            prof_compile_cycles block.b_len
          end
        in
        Runtime.Ledger.charge_jit cc;
        if Obs.Profiler.on () then
          Obs.Profiler.record
            ~frames:[ "jit-compile"; (Hhbc.Hunit.func eng.hunit fid).fn_name ]
            ~cycles:cc;
        publish eng tr;
        Some tr
      | None ->
        (* budget exhausted *)
        mark_no_compile eng fid pc;
        None
    end
  end

(* ------------------------------------------------------------------ *)
(* Entering compiled code                                              *)
(* ------------------------------------------------------------------ *)

let guard_matches (frame : Vm.Interp.frame) (g : Rd.guard) : bool =
  match g.g_loc with
  | Rd.LLocal l -> Hhbc.Rtype.value_matches g.g_type frame.locals.(l)
  | Rd.LStack d ->
    frame.sp - 1 - d >= 0
    && Hhbc.Rtype.value_matches g.g_type frame.stack.(frame.sp - 1 - d)

(** Validate one entry's preconditions against the live state; charges the
    simulated guard-execution cost (2 cycles per guard, as before) to the
    account of the domain's machine [m], and counts through its store. *)
let entry_matches (m : Exec.machine) (frame : Vm.Interp.frame)
    (en : Translation.entry) : bool =
  let gs = en.Translation.en_guards in
  let n = Array.length gs in
  Runtime.Ledger.charge_jit_on m.Exec.ledger (2 * n);
  let i = ref 0 in
  while !i < n && guard_matches frame gs.(!i) do incr i done;
  let matched = !i = n in
  if not matched then begin
    Obs.Vmstats.bump_on m.Exec.vstats c_guard_fail;
    if Obs.Trace.on Obs.Trace.Guard then begin
      let b = en.Translation.en_block in
      Obs.Trace.emit Obs.Trace.Guard
        [ ("fid", Obs.Trace.I b.Rd.b_func);
          ("srckey", Obs.Trace.I b.Rd.b_start);
          ("block", Obs.Trace.I b.Rd.b_id);
          ("guards", Obs.Trace.I n) ]
    end
  end;
  matched

(** First entry along [sl]'s retranslation chain whose preconditions hold
    for the live state: translations in chain order, each one's entries in
    order, so the guards charged by [entry_matches] are the same for every
    caller. *)
let chain_find (m : Exec.machine) (frame : Vm.Interp.frame) (sl : slot)
  : (Translation.t * Translation.entry) option =
  let found = ref None in
  let i = ref 0 in
  while !found = None && !i < sl.sl_len do
    let tr = sl.sl_chain.(!i) in
    let entries = tr.Translation.tr_entries in
    let j = ref 0 in
    while !found = None && !j < Array.length entries do
      let en = entries.(!j) in
      if entry_matches m frame en then found := Some (tr, en);
      incr j
    done;
    incr i
  done;
  !found

(* [c]'s mono cache at (fid, pc); reads and writes bound themselves by
   the table's dimensions *)
let mono_ok (c : dctx) (fid : int) (pc : int) : bool =
  fid < Array.length c.dx_mono && pc < Array.length c.dx_mono.(fid)

let mono_get (c : dctx) (fid : int) (pc : int)
  : (Translation.t * Translation.entry) option =
  if mono_ok c fid pc then c.dx_mono.(fid).(pc) else None

let mono_set (c : dctx) (fid : int) (pc : int) v : unit =
  if mono_ok c fid pc then c.dx_mono.(fid).(pc) <- v

(** Find a translation entry in [c]'s epoch whose preconditions hold for
    the live state.  The domain's monomorphic last-hit cache is consulted
    first: steady-state re-entry validates only the cached entry's guards
    instead of walking the whole retranslation chain.  The probes charge
    and count through the domain's machine. *)
let select_entry (eng : t) (c : dctx) (frame : Vm.Interp.frame) (pc : int)
  : (Translation.t * Translation.entry) option =
  let m = c.dx_machine in
  let fid = frame.func.fn_id in
  match slot_at c.dx_epoch.ep_trans fid pc with
  | None -> None
  | Some sl ->
    let mono_hit =
      if eng.opts.dispatch_caches then
        match mono_get c fid pc with
        | Some (_, en) as hit when entry_matches m frame en ->
          Obs.Vmstats.bump_on m.Exec.vstats c_mono_hit;
          hit
        | _ ->
          Obs.Vmstats.bump_on m.Exec.vstats c_mono_miss;
          None
      else None
    in
    match mono_hit with
    | Some _ -> mono_hit
    | None ->
      let found = chain_find m frame sl in
      (match found with
       | Some _ ->
         Obs.Vmstats.bump_on m.Exec.vstats c_chain_hit;
         Obs.Vmstats.observe_on m.Exec.vstats h_chain_len sl.sl_len;
         if eng.opts.dispatch_caches then mono_set c fid pc found
       | None -> Obs.Vmstats.bump_on m.Exec.vstats c_chain_miss);
      found

(* ------------------------------------------------------------------ *)
(* Epoch publish                                                       *)
(* ------------------------------------------------------------------ *)

(** Publish the dispatch state as a new immutable epoch (single atomic
    store).  Rows are rebuilt from the live tables as trimmed private slot
    copies, so no later compile-side mutation (lazy compiles, chain
    growth) can reach a published view; in-flight requests keep
    dispatching on the epoch they pinned and adopt this one at their next
    request boundary.

    Without [fids] every row is rebuilt: [install] (the empty gen-0
    epoch), the end of every retranslate-all, compaction and jumpstart
    adoption.  With [~fids] only those functions' rows are rebuilt and
    every other row is shared with the previous epoch: a queue drain
    passes the functions its translations landed in, an eviction those
    whose chains shrank (and, as [pruned], the srckeys).  This is exact
    because every write to [eng.trans] happens under the write lease and
    is followed by a publish — the live rows are the previous epoch's
    rows plus what was just drained or evicted.  Only a [~fids] publish
    counts as [epoch.delta_publish]; [~fids:[]] publishes nothing.
    Write-lease holder (or [install], before anything dispatches) only,
    so the sequence of epochs is total. *)
let publish_epoch ?(fids : int list option) ?(pruned = []) (eng : t) : unit =
  if fids <> Some [] then begin
    let freeze_row =
      Array.map
        (Option.map (fun (sl : slot) ->
             { sl_chain = Array.sub sl.sl_chain 0 sl.sl_len;
               sl_len = sl.sl_len }))
    in
    let prev = Atomic.get eng.published in
    let ep_trans =
      match fids with
      | None -> Array.map freeze_row eng.trans
      | Some fids ->
        Obs.Vmstats.bump c_epoch_delta;
        let rows = Array.copy prev.ep_trans in
        List.iter (fun fid -> rows.(fid) <- freeze_row eng.trans.(fid)) fids;
        rows
    in
    let seq = prev.ep_seq + 1 in
    let lo, hi = Simcpu.Codecache.main_range eng.cache in
    Atomic.set eng.published
      { ep_seq = seq;
        ep_gen = eng.generation;
        ep_trans;
        ep_huge = eng.opts.huge_pages && eng.optimized_published;
        ep_main_lo = lo;
        ep_main_hi = hi;
        ep_pruned =
          List.fold_left (fun acc (fid, pc) -> (seq, fid, pc) :: acc)
            (if prev.ep_gen = eng.generation then prev.ep_pruned else [])
            pruned }
  end

(* ------------------------------------------------------------------ *)
(* Per-domain dispatch contexts and epoch adoption                     *)
(* ------------------------------------------------------------------ *)

let fresh_mono (ep : epoch) : mono =
  Array.map (fun row -> Array.make (Array.length row) None) ep.ep_trans

(* Map [ep]'s hot section onto huge pages on [m]'s I-TLB, unless that is
   already its mapping (a reset would cost the next fetch its page). *)
let apply_epoch_itlb (m : Exec.machine) (ep : epoch) : unit =
  let tlb = m.Exec.itlb in
  if tlb.Simcpu.Itlb.huge <> ep.ep_huge
  || (ep.ep_huge
      && (tlb.Simcpu.Itlb.huge_lo <> ep.ep_main_lo
          || tlb.Simcpu.Itlb.huge_hi <> ep.ep_main_hi))
  then
    Simcpu.Itlb.set_huge tlb ~enabled:ep.ep_huge ~lo:ep.ep_main_lo
      ~hi:ep.ep_main_hi

let new_ctx (m : Exec.machine) (ep : epoch) : dctx =
  apply_epoch_itlb m ep;
  { dx_machine = m; dx_epoch = ep; dx_mono = fresh_mono ep }

(** The calling domain's dispatch context: a serving worker's own, else
    the main domain's, made on first use around the engine's machine. *)
let ctx (eng : t) : dctx =
  match Domain.DLS.get ctx_key with
  | Some c -> c
  | None ->
    match eng.main_ctx with
    | Some c -> c
    | None ->
      let c = new_ctx eng.machine (Atomic.get eng.published) in
      eng.main_ctx <- Some c;
      c

(** Pin [ep] in [c].  A new generation drops every mono cache (their
    entries are dead translations); a same-generation epoch drops only
    those at srckeys an eviction pruned since [c]'s epoch, so after the
    adoption [c] never enters a translation [ep] does not hold.  The I-TLB
    follows the epoch's hot-section mapping. *)
let adopt (c : dctx) (ep : epoch) : unit =
  let old = c.dx_epoch in
  if ep.ep_seq <> old.ep_seq then begin
    if Obs.Span.on () then Obs.Span.count Obs.Span.Adopt;
    c.dx_epoch <- ep;
    if ep.ep_gen <> old.ep_gen then c.dx_mono <- fresh_mono ep
    else begin
      let rec drop = function
        | (seq, fid, pc) :: rest when seq > old.ep_seq ->
          mono_set c fid pc None;
          drop rest
        | _ -> ()
      in
      drop ep.ep_pruned
    end;
    apply_epoch_itlb c.dx_machine ep
  end

(* Retranslate-all, eviction, compaction and jumpstart adoption run
   between requests: the domain that ran one adopts its epoch at once. *)
let adopt_here (eng : t) : unit =
  let ep = Atomic.get eng.published in
  match Domain.DLS.get ctx_key with
  | Some c -> adopt c ep
  | None -> Option.iter (fun c -> adopt c ep) eng.main_ctx

(* ------------------------------------------------------------------ *)
(* Lazy translation (write lease + incremental epoch publish)          *)
(* ------------------------------------------------------------------ *)

(** Drain the translation-request queue under the write lease: compile
    each request against the live profile/TransCFG state (which the lease
    protects), smash the requesting bind jumps, and publish everything
    that landed as one epoch delta.  Requests are consumed in queue
    order, so translation ids, code-cache offsets,
    inline-cache ids and link smashes are assigned in a canonical
    schedule-independent order per queue history.  Caller MUST hold the
    write lease. *)
let drain_translation_queue (eng : t) : unit =
  let landed = ref [] in
  let consumed =
    Translate_queue.drain (fun rq ->
        let fid = rq.Translate_queue.rq_fid
        and pc = rq.Translate_queue.rq_pc
        and locals = rq.Translate_queue.rq_locals
        and stack = rq.Translate_queue.rq_stack in
        (* the first entry of a translation whose guards the captured
           types pass: the entry the requester's chain walk would take *)
        let entry_for (tr : Translation.t) =
          Array.find_opt (Translation.entry_covers ~locals ~stack)
            tr.Translation.tr_entries
        in
        if not (no_compile eng fid pc) then begin
          let chain =
            match slot_at eng.trans fid pc with
            | Some sl -> Array.sub sl.sl_chain 0 sl.sl_len
            | None -> [||]
          in
          (* authoritative dedup: an earlier drain may already cover
             these types — the requester just hasn't adopted the epoch
             that has it *)
          let covered = Array.exists (fun tr -> entry_for tr <> None) chain in
          if covered then Obs.Vmstats.bump c_lazy_covered
          else if Array.length chain < eng.opts.max_live_per_srckey then begin
            let oracle (loc : Rd.loc) : Hhbc.Rtype.t =
              match loc with
              | Rd.LLocal l ->
                if l < Array.length locals then locals.(l)
                else Hhbc.Rtype.uninit
              | Rd.LStack d ->
                if d < Array.length stack then stack.(d)
                else Hhbc.Rtype.uninit
            in
            match compile_at eng ~fid ~pc ~oracle with
            | Some tr ->
              Obs.Vmstats.bump c_lazy_compiled;
              (* smash the requesting exit's bind jump under the lease:
                 target first, then generation, so a racing reader either
                 sees a dead link or a fully written one (and re-validates
                 the entry's guards in any case) *)
              (match rq.Translate_queue.rq_via with
               | Some (src, eid) when eng.opts.dispatch_caches ->
                 (match entry_for tr with
                  | Some en ->
                    let lk = src.Translation.tr_links.(eid) in
                    lk.Translation.lk_target <- Some (tr, en);
                    lk.Translation.lk_gen <- eng.generation;
                    Obs.Vmstats.bump c_link_smashed
                  | None -> ())
               | _ -> ());
              landed := tr :: !landed
            | None -> ()
          end
        end)
  in
  let landed = List.rev !landed in
  publish_epoch eng
    ~fids:(List.map (fun (tr : Translation.t) -> tr.Translation.tr_fid) landed);
  if consumed > 0 && Obs.Trace.on Obs.Trace.Lease then
    Obs.Trace.emit Obs.Trace.Lease
      [ ("event", Obs.Trace.S "drain");
        ("requests", Obs.Trace.I consumed);
        ("compiled", Obs.Trace.I (List.length landed));
        ("epoch", Obs.Trace.I (Atomic.get eng.published).ep_seq) ]

(** A miss in [c]'s epoch.  Unless the srckey's chain is at its cap or
    marked no-compile (checked before anything is captured, so a miss that
    cannot compile costs only the lookup), capture the frame's types,
    enqueue a translation request and try to win the write lease.  The
    winner drains the whole queue (its own request included), adopts the
    epoch the drain published — unless the generation moved since [c]
    pinned its epoch, which a request never straddles — and enters its
    new code through {!select_entry}; losers return [None] and interpret,
    adopting the result at a later request boundary. *)
let translate_miss (eng : t) (c : dctx) (frame : Vm.Interp.frame) (pc : int)
    ~(via : (Translation.t * int) option)
  : (Translation.t * Translation.entry) option =
  let fid = frame.func.fn_id in
  Obs.Vmstats.bump_on c.dx_machine.Exec.vstats c_serving_miss;
  let chain_len =
    match slot_at c.dx_epoch.ep_trans fid pc with
    | Some sl -> sl.sl_len
    | None -> 0
  in
  (* racy read of [nocompile] (rows are replaced wholesale under the
     lease): a stale [true] skips a request that would be rejected
     anyway, a stale [false] is re-checked at drain time *)
  if (not eng.opts.lazy_translate)
  || chain_len >= eng.opts.max_live_per_srckey || no_compile eng fid pc
  then None
  else begin
    let locals = Array.map Hhbc.Rtype.of_value frame.locals in
    let stack =
      Array.init (max frame.sp 0)
        (fun d -> Hhbc.Rtype.of_value frame.stack.(frame.sp - 1 - d))
    in
    let via = if eng.opts.dispatch_caches then via else None in
    let queued = Translate_queue.enqueue ~fid ~pc ~locals ~stack ~via in
    if Obs.Span.on () then Obs.Span.count Obs.Span.Enqueue;
    if queued && Translate_queue.try_acquire () then
      let lw0 =
        if Obs.Span.on () then (Runtime.Ledger.acct ()).Runtime.Ledger.a_cycles
        else 0
      in
      Fun.protect
        ~finally:(fun () ->
            Translate_queue.release ();
            if Obs.Span.on () then
              Obs.Span.add Obs.Span.LeaseWait
                ((Runtime.Ledger.acct ()).Runtime.Ledger.a_cycles - lw0))
        (fun () ->
          drain_translation_queue eng;
          let ep = Atomic.get eng.published in
          if ep.ep_gen <> c.dx_epoch.ep_gen then None
          else begin
            adopt c ep;
            let found = select_entry eng c frame pc in
            if found <> None then Obs.Vmstats.bump c_lazy_entered;
            found
          end)
    else None
  end

(** Materialize an inlined callee frame from exit metadata (§5.3.1). *)
let materialize_inline (eng : t) (tr : Translation.t)
    (reader : Vasm.Regalloc.operand -> value) (ie : Hhir.Ir.inline_exit)
  : Vm.Interp.frame =
  let callee = Hhbc.Hunit.func eng.hunit ie.ie_fid in
  let read_tmp (t : Hhir.Ir.tmp) : value =
    match Hashtbl.find_opt tr.tr_loc t.t_id with
    | Some loc -> reader loc
    | None -> VUninit
  in
  let locals = Array.make (max callee.fn_num_locals 1) VUninit in
  List.iter (fun (l, t) -> if l < Array.length locals then locals.(l) <- read_tmp t)
    ie.ie_locals;
  let stack = Array.make (Vm.Interp.frame_stack_size callee) VUninit in
  List.iteri (fun i t -> stack.(i) <- read_tmp t) ie.ie_stack;
  { Vm.Interp.func = callee;
    unit_ = eng.hunit;
    locals;
    stack;
    sp = List.length ie.ie_stack;
    this_ = (match ie.ie_this with Some t -> read_tmp t | None -> VNull);
    iters =
      (if callee.fn_num_iters = 0 then [||]
       else
         Array.init callee.fn_num_iters
           (fun _ -> { Vm.Interp.it_arr = None; it_pos = 0 }));
    acct = Vm.Interp.no_acct; pc_ = 0; ret_ = VUninit; cyc_ = 0; icnt_ = 0 }

(** Smash the bind jump [src]'s exit [eid] to [found] — only under the
    write lease, taken without waiting (a domain that cannot have it
    leaves the link as it is), and only to a live translation of the
    engine's current generation.  Target first, then generation, the
    drain's discipline: a racing reader sees a dead link or a fully
    written one, and re-validates the entry's guards in any case. *)
let smash_link (eng : t) (c : dctx) ~(src : Translation.t) ~(eid : int)
    (found : (Translation.t * Translation.entry) option) : unit =
  match found with
  | None -> ()
  | Some (dst, den) ->
    let lk = src.Translation.tr_links.(eid) in
    let already =
      match lk.Translation.lk_target with
      | Some (t, e) -> t == dst && e == den && lk.Translation.lk_gen = eng.generation
      | None -> false
    in
    if (not already) && Translate_queue.try_acquire () then begin
      let ok =
        c.dx_epoch.ep_gen = eng.generation && not dst.Translation.tr_evicted
      in
      if ok then begin
        lk.Translation.lk_target <- found;
        lk.Translation.lk_gen <- eng.generation;
        Obs.Vmstats.bump c_link_smashed
      end;
      Translate_queue.release ();
      if ok && Obs.Trace.on Obs.Trace.Link then
        Obs.Trace.emit Obs.Trace.Link
          [ ("event", Obs.Trace.S "smash");
            ("src", Obs.Trace.I src.Translation.tr_id);
            ("exit", Obs.Trace.I eid);
            ("dst", Obs.Trace.I dst.Translation.tr_id) ]
    end

(** Attempt to enter compiled code at (frame, pc); handles chaining through
    exits until compiled execution ends.  This function implements the
    [translation_hook] contract, on every domain alike: lookups, link
    follows and counts go through the calling domain's {!dctx}, a miss
    goes to {!translate_miss}, and a resolved exit is smashed with
    {!smash_link}. *)
let try_enter (eng : t) (frame : Vm.Interp.frame) (pc : int)
  : Vm.Interp.enter_result =
  let c = ctx eng in
  let machine = c.dx_machine in
  (* the machine's account is this domain's: a frame the interpreter
     runs after this takes it instead of reading the domain-local key *)
  if frame.acct == Vm.Interp.no_acct then frame.acct <- machine.Exec.ledger;
  (* the last profiling block entered, for TransCFG arcs; -1 for none *)
  let prev_prof_block = ref (-1) in
  (* [via] is the (translation, exit id) we are chaining out of, if any:
     when the exit's target resolves, the link is memoized there so later
     exits skip the table lookup and chain walk entirely — the software
     analogue of the paper's smashed bind jumps (§4.3). *)
  let rec go ~(via : (Translation.t * int) option) (pc : int) (first : bool)
    : Vm.Interp.enter_result =
    let entry =
      let linked =
        match via with
        | Some (src, eid) when eng.opts.dispatch_caches ->
          let lk = src.Translation.tr_links.(eid) in
          if lk.Translation.lk_gen = c.dx_epoch.ep_gen then
            (match lk.Translation.lk_target with
             | Some (_, en) as tgt when entry_matches machine frame en ->
               Obs.Vmstats.bump_on machine.Exec.vstats c_link_follow;
               tgt
             | _ -> None)
          else begin
            (* smashed in another generation: dead to this epoch *)
            if lk.Translation.lk_target <> None then
              Obs.Vmstats.bump_on machine.Exec.vstats c_link_stale;
            None
          end
        | _ -> None
      in
      match linked with
      | Some _ -> linked
      | None ->
        let found =
          match select_entry eng c frame pc with
          | Some _ as e -> e
          | None -> translate_miss eng c frame pc ~via
        in
        (match via with
         | Some (src, eid) when eng.opts.dispatch_caches ->
           smash_link eng c ~src ~eid found
         | _ -> ());
        found
    in
    match entry with
    | None ->
      Obs.Vmstats.bump_on machine.Exec.vstats c_serving_fallback;
      if Obs.Span.on () then Obs.Span.count Obs.Span.Interp;
      if first then Vm.Interp.NoTranslation else Vm.Interp.Resumed pc
    | Some (tr, en) ->
      let rb = en.Translation.en_block and idx = en.Translation.en_idx in
      (* profiling translations carry instrumentation beyond the block
         counter (targeted profiles, §4.1 item 4); charge its overhead at
         each entry, and record the TransCFG arc from the previous
         profiling block (§4.2) in the domain's profile *)
      if tr.tr_kind = Translation.KProfiling then begin
        Runtime.Ledger.charge_jit_on machine.Exec.ledger 45;
        if Obs.Profiler.on () then
          Obs.Profiler.record ~frames:[ "jit-instrument" ] ~cycles:45;
        let src = !prev_prof_block in
        if src >= 0 then begin
          if Obs.Trace.on Obs.Trace.Link then
            Obs.Trace.emit Obs.Trace.Link
              [ ("event", Obs.Trace.S "arc");
                ("src", Obs.Trace.I src);
                ("dst", Obs.Trace.I rb.Rd.b_id) ];
          Vm.Prof.record_arc ~src ~dst:rb.Rd.b_id
        end;
        prev_prof_block := rb.Rd.b_id
      end
      else prev_prof_block := -1;
      let entry_sp = frame.sp in
      let outcome = Exec.run machine tr.tr_prog ~entry:idx ~frame ~entry_sp in
      let vs = machine.Exec.vstats in
      (match outcome with
       | Exec.XReturn _ -> Obs.Vmstats.bump_on vs c_exit_return
       | Exec.XBind e ->
         let es = tr.tr_exits.(e) in
         if es.es_inline <> None then Obs.Vmstats.bump_on vs c_exit_inline
         else if es.es_interp then Obs.Vmstats.bump_on vs c_exit_interp
         else Obs.Vmstats.bump_on vs c_exit_bind
       | Exec.XUnwind _ -> Obs.Vmstats.bump_on vs c_exit_unwind);
      if Obs.Trace.on Obs.Trace.Exit then
        Obs.Trace.emit Obs.Trace.Exit
          (("tr", Obs.Trace.I tr.tr_id)
           :: ("fid", Obs.Trace.I tr.tr_fid)
           :: (match outcome with
               | Exec.XReturn _ -> [ ("kind", Obs.Trace.S "return") ]
               | Exec.XBind e ->
                 let es = tr.tr_exits.(e) in
                 [ ("kind", Obs.Trace.S "bind");
                   ("pc", Obs.Trace.I es.es_pc);
                   ("spdelta", Obs.Trace.I es.es_spdelta);
                   ("interp", Obs.Trace.B es.es_interp);
                   ("inline", Obs.Trace.B (es.es_inline <> None)) ]
               | Exec.XUnwind (e, _) ->
                 [ ("kind", Obs.Trace.S "unwind");
                   ("exit", Obs.Trace.I e) ]));
      (match outcome with
       | Exec.XReturn v -> Vm.Interp.Returned v
       | Exec.XBind eid ->
         let es = tr.tr_exits.(eid) in
         (match es.es_inline with
          | None when es.es_interp ->
            (* the exit re-executes its instruction: must interpret *)
            frame.sp <- entry_sp + es.es_spdelta;
            Vm.Interp.Resumed es.es_pc
          | None ->
            frame.sp <- entry_sp + es.es_spdelta;
            go ~via:(Some (tr, eid)) es.es_pc false
          | Some ie ->
            (* partial-inlining side exit: run the rest of the callee in
               the interpreter, push its result, continue in the caller *)
            frame.sp <- entry_sp + es.es_spdelta;
            let cf =
              materialize_inline eng tr
                (Exec.final_reader machine tr.tr_prog) ie
            in
            (match Vm.Interp.run cf ie.ie_pc with
             | v ->
               Vm.Interp.push frame v;
               go ~via:None es.es_pc false
             | exception Vm.Interp.Php_exception e ->
               (* the callee frame was torn down by its unwinder; the
                  exception propagates into the caller at the call's pc *)
               Vm.Interp.Returned
                 (Vm.Interp.resume_with_exception frame (es.es_pc - 1) e)))
       | Exec.XUnwind (eid, exn_v) ->
         let es = tr.tr_exits.(eid) in
         frame.sp <- entry_sp + es.es_spdelta;
         (match es.es_inline with
          | Some ie ->
            (* exception inside a call made by inlined code: give the
               callee's handlers a chance first *)
            let cf =
              materialize_inline eng tr
                (Exec.final_reader machine tr.tr_prog) ie
            in
            (try
               let v = Vm.Interp.resume_with_exception cf ie.ie_pc exn_v in
               Vm.Interp.push frame v;
               go ~via:None es.es_pc false
             with Vm.Interp.Php_exception e2 ->
               (* propagate into the caller at the call's pc *)
               Vm.Interp.Returned
                 (Vm.Interp.resume_with_exception frame (es.es_pc - 1) e2))
          | None ->
            Vm.Interp.Returned
              (Vm.Interp.resume_with_exception frame es.es_pc exn_v)))
  in
  go ~via:None pc true

(* ------------------------------------------------------------------ *)
(* Whole-program reoptimization (§5.1)                                 *)
(* ------------------------------------------------------------------ *)

(* [f] on every link slot of every translation in the live tables *)
let iter_links (eng : t) (f : Translation.link -> unit) : unit =
  Array.iter
    (Array.iter (function
       | Some sl ->
         for i = 0 to sl.sl_len - 1 do
           Array.iter f sl.sl_chain.(i).Translation.tr_links
         done
       | None -> ()))
    eng.trans

(** Estimate a function's code size from its profiled blocks (for C3). *)
let func_size_estimate (fid : int) : int =
  match Hashtbl.find_opt Region.Transcfg.blocks_by_func fid with
  | Some l ->
    40 + List.fold_left (fun a (b : Rd.block) -> a + 12 * b.b_len) 0 !l
  | None -> 40

(** Sort inputs for retranslate-all, from the engine's cache when the
    TransCFG registry and the profile are structurally unchanged since the
    last retranslation (weight-only growth does not re-scan). *)
let sort_inputs (eng : t) (funcs : int list) : sort_cache =
  let tv = Region.Transcfg.version () and pv = Vm.Prof.version () in
  match eng.sort_cache with
  | Some sc when sc.sc_tcfg_version = tv && sc.sc_prof_version = pv -> sc
  | _ ->
    let sc_sizes = Hashtbl.create (2 * List.length funcs + 1) in
    List.iter
      (fun fid -> Hashtbl.replace sc_sizes fid (func_size_estimate fid))
      funcs;
    (* method-call edges resolved through receiver-class profiles *)
    let sc_medges =
      List.filter_map
        (fun (caller, mname, cls, w) ->
           if cls < 0 || cls >= Runtime.Vclass.count () then None
           else
             Option.map
               (fun (m : Runtime.Vclass.meth) -> ((caller, m.m_func), w))
               (Runtime.Vclass.lookup_method (Runtime.Vclass.get cls) mname))
        (Vm.Prof.method_edges ())
    in
    let sc = { sc_tcfg_version = tv; sc_prof_version = pv;
               sc_sizes; sc_medges } in
    eng.sort_cache <- Some sc;
    sc

(** The global retranslation trigger (§5.1): form regions for every profiled
    function, optimize, sort functions with C3, and publish the optimized
    code.  Profiling translations are dropped (their section is reclaimed).
    Returns the number of optimized translations produced.

    The compile phase (region formation -> HHIR -> vasm -> prepared code)
    is read-only with respect to engine state and fans out across
    [opts.jit_workers] domains over a frozen TransCFG snapshot; the publish
    phase then places every prepared translation serially in C3 function
    order, so code-cache offsets, translation ids, inline-cache ids, links
    and trace output are identical for any worker count. *)
let retranslate_all_locked (eng : t) : int =
  let t0 = Unix.gettimeofday () in
  Obs.Vmstats.bump c_retranslate;
  (* fold profile deltas flushed by serving workers into the canonical
     profile — "merge at retranslate-all trigger time" (the trigger may
     itself be firing on a worker domain while its siblings keep serving
     on their pinned epochs) *)
  Vm.Prof.merge_pending ();
  eng.phase <- POptimized;
  (* candidate functions: every function with profiled blocks, in
     function-id order; C3 below orders them by the call graph *)
  let funcs =
    Hashtbl.fold (fun fid _ acc -> fid :: acc) Region.Transcfg.blocks_by_func []
    |> List.sort_uniq compare
  in
  (* function order: C3 over the dynamic call graph *)
  let order =
    if eng.opts.function_sort then begin
      let sc = sort_inputs eng funcs in
      let edges = Vm.Prof.call_graph () in
      let sizes fid =
        Option.value (Hashtbl.find_opt sc.sc_sizes fid) ~default:40
      in
      C3.sort ~edges:(edges @ sc.sc_medges) ~sizes funcs
    end else funcs
  in
  (* drop profiling translations; optimized code replaces them.  Fresh
     tables also clear every monomorphic entry cache, and bumping the
     generation unsmashes every translation link — stale translations
     cannot be re-entered through any cache after this point. *)
  if Obs.Vmstats.on () then
    (* count the links the generation bump is about to kill *)
    iter_links eng (fun lk ->
        if lk.Translation.lk_target <> None
        && lk.Translation.lk_gen = eng.generation then
          Obs.Vmstats.bump c_link_invalidated);
  eng.generation <- eng.generation + 1;
  eng.trans <- fresh_rows eng.hunit None;
  eng.nocompile <- fresh_rows eng.hunit false;
  (* compile phase: one task per function, in C3 order, over a frozen
     TransCFG snapshot.  Tasks only read the snapshot and the unit and
     write task-local buffers, so any interleaving yields the same
     prepared code; the task array's order fixes the publish order. *)
  let snap = Region.Transcfg.snapshot funcs in
  let weight = Region.Transcfg.snap_weight snap in
  let tasks =
    Array.of_list
      (List.map
         (fun fid () ->
            Region.Form.form_snapshot_regions
              ~max_instrs:eng.opts.max_region_instrs snap fid
            |> List.map
              (fun region ->
                 let region =
                   if eng.opts.guard_relax then Region.Relax.run ~weight region
                   else region
                 in
                 prepare_region eng ~snapshot:(Some snap) ~fid ~region
                   ~kind:Translation.KOptimized))
         order)
  in
  let t1 = Unix.gettimeofday () in
  let prepared = Jit_worker.run ~workers:eng.opts.jit_workers tasks in
  let t2 = Unix.gettimeofday () in
  (* publish phase: serial, in task (C3) order — every global id below is
     assigned here, independent of which worker compiled what when *)
  let count = ref 0 in
  let placed = ref [] in
  Array.iter
    (List.iter
       (fun ((p, nb) as pr) ->
          match finish_translation eng pr with
          | Some tr ->
            publish eng tr;
            eng.n_optimized <- eng.n_optimized + 1;
            eng.opt_bytes <- eng.opt_bytes + tr.tr_bytes;
            placed := (p, nb, tr) :: !placed;
            incr count
          | None -> ()))
    prepared;
  eng.last_opt <- Array.of_list (List.rev !placed);
  eng.optimized_published <- true;
  (* map the hot section onto huge pages (§5.1.2) *)
  let lo, hi = Simcpu.Codecache.main_range eng.cache in
  Simcpu.Itlb.set_huge eng.machine.itlb ~enabled:eng.opts.huge_pages ~lo ~hi;
  if Obs.Trace.on Obs.Trace.Retranslate then
    Obs.Trace.emit Obs.Trace.Retranslate
      [ ("generation", Obs.Trace.I eng.generation);
        ("functions", Obs.Trace.I (List.length order));
        ("optimized", Obs.Trace.I !count) ];
  let t3 = Unix.gettimeofday () in
  (* stall accounting: the compile window [t1, t2] stalls the main domain
     only when it compiles inline (one worker); with background workers the
     main thread is merely waiting and would keep serving requests *)
  let compile_s = t2 -. t1 in
  let stall_s =
    (t1 -. t0) +. (t3 -. t2)
    +. (if eng.opts.jit_workers <= 1 then compile_s else 0.0)
  in
  Obs.Vmstats.record_seconds t_compile compile_s;
  Obs.Vmstats.record_seconds t_pause stall_s;
  (* make the optimized tables visible to parallel-serving domains: one
     atomic swap; requests in flight finish on the epoch they pinned *)
  publish_epoch eng;
  !count

(* Run an engine-level publish under the write lease, waiting for it;
   the calling domain then adopts the result at once. *)
let with_lease (eng : t) (f : unit -> 'a) : 'a =
  Translate_queue.acquire ();
  let r = Fun.protect ~finally:Translate_queue.release f in
  adopt_here eng;
  r

(** Retranslate-all takes the write lease for its whole run: it rewrites
    the translation tables, id allocators and code cache that in-burst
    lazy translation mutates under the same lease, so a retranslate fired
    mid-burst serializes against any drain in progress (and lease holders
    observe a consistent generation).  Outside a burst the lease is
    always free and this is one uncontended CAS. *)
let retranslate_all (eng : t) : int =
  with_lease eng (fun () -> retranslate_all_locked eng)

(* ------------------------------------------------------------------ *)
(* Code-cache lifecycle: liveness decay, eviction, Main compaction     *)
(* ------------------------------------------------------------------ *)

(** One liveness decay tick over the optimized publish sequence: halve
    every translation's score and add the entries it received since the
    last tick.  A translation the traffic stopped entering decays toward
    zero geometrically while still-hot ones are replenished each tick, so
    the score is a recency-weighted exec count, not a lifetime one.  The
    entries are the engine machine's: every serving worker's are folded
    in at its burst's join. *)
let decay_liveness (eng : t) : unit =
  Array.iter
    (fun (_, _, (tr : Translation.t)) ->
       if not tr.Translation.tr_evicted then begin
         let execs = Exec.execs eng.machine tr.Translation.tr_prog in
         let fresh = execs - tr.Translation.tr_exec_mark in
         tr.Translation.tr_live_score <-
           (tr.Translation.tr_live_score asr 1) + fresh;
         tr.Translation.tr_exec_mark <- execs;
         tr.Translation.tr_age <- tr.Translation.tr_age + 1
       end)
    eng.last_opt

(** Evict optimized translations whose decayed liveness fell below
    [threshold].  For each victim: the srckey chain is pruned (the epoch
    records the srckey, so adopting domains drop their mono caches
    there), every smashed bind jump pointing at it anywhere
    in the surviving tables is unpatched through the link machinery, its
    Main/Cold extents become code-cache holes, and — when a function's
    optimized code is entirely gone — its stale profile is pruned so the
    next retranslate-all cannot resurrect a traffic phase that has
    passed.  The shrunk rows are published incrementally
    ([publish_epoch ~fids]); requests in flight finish on the epoch they
    pinned (victim objects stay reachable and correct), new requests stop
    seeing the victims at their next boundary.  Translations younger than two ticks
    are never victims: freshly placed code has had no chance to
    accumulate a score.  Caller must hold the write lease. *)
let evict_cold_locked (eng : t) ~(threshold : int) : int =
  decay_liveness eng;
  let victims =
    Array.to_list eng.last_opt
    |> List.filter_map
      (fun (_, _, (tr : Translation.t)) ->
         if (not tr.Translation.tr_evicted)
         && tr.Translation.tr_age >= 2
         && tr.Translation.tr_live_score < threshold
         then Some tr else None)
  in
  if victims = [] then 0
  else begin
    Obs.Vmstats.bump c_tc_evict_runs;
    let affected = Hashtbl.create 8 in
    List.iter
      (fun (tr : Translation.t) ->
         tr.Translation.tr_evicted <- true;
         Hashtbl.replace affected tr.Translation.tr_fid ();
         Simcpu.Codecache.free eng.cache Simcpu.Codecache.Main
           tr.Translation.tr_hot_bytes;
         Simcpu.Codecache.free eng.cache Simcpu.Codecache.Cold
           tr.Translation.tr_cold_bytes;
         eng.n_optimized <- eng.n_optimized - 1;
         eng.opt_bytes <- eng.opt_bytes - tr.Translation.tr_bytes;
         Obs.Vmstats.bump c_tc_evicted;
         Obs.Vmstats.add c_tc_evicted_bytes tr.Translation.tr_bytes;
         if Obs.Trace.on Obs.Trace.Translate then
           Obs.Trace.emit Obs.Trace.Translate
             [ ("event", Obs.Trace.S "evict");
               ("tr", Obs.Trace.I tr.Translation.tr_id);
               ("fid", Obs.Trace.I tr.Translation.tr_fid);
               ("bytes", Obs.Trace.I tr.Translation.tr_bytes);
               ("score", Obs.Trace.I tr.Translation.tr_live_score) ])
      victims;
    (* prune victims out of their srckey chains, noting each pruned
       srckey: a mono cache there would keep re-validating a dead entry *)
    let pruned = ref [] in
    Hashtbl.iter
      (fun fid () ->
         if fid < Array.length eng.trans then
           Array.iteri
             (fun pc -> function
               | Some sl ->
                 let keep = ref [] in
                 for i = sl.sl_len - 1 downto 0 do
                   let tr = sl.sl_chain.(i) in
                   if not tr.Translation.tr_evicted then keep := tr :: !keep
                 done;
                 let keep = Array.of_list !keep in
                 if Array.length keep <> sl.sl_len then begin
                   sl.sl_chain <- keep;
                   sl.sl_len <- Array.length keep;
                   pruned := (fid, pc) :: !pruned
                 end
               | None -> ())
             eng.trans.(fid))
      affected;
    (* unpatch incoming smashed bind jumps: scan every surviving chain's
       link slots and revert those whose target died.  Links smashed in
       the current generation count as invalidations (the same counter a
       retranslate-all generation bump feeds); a reader racing the store
       either sees the old target — still a correct, reachable
       translation — or the unlinked state. *)
    iter_links eng (fun lk ->
        match lk.Translation.lk_target with
        | Some (dst, _) when dst.Translation.tr_evicted ->
          if lk.Translation.lk_gen = eng.generation && Obs.Vmstats.on () then
            Obs.Vmstats.bump c_link_invalidated;
          lk.Translation.lk_target <- None
        | _ -> ());
    (* a function with no optimized translation left: drop its profile *)
    let optimized = function
      | Some sl ->
        Array.exists
          (fun (tr : Translation.t) ->
             tr.Translation.tr_kind = Translation.KOptimized)
          (Array.sub sl.sl_chain 0 sl.sl_len)
      | None -> false
    in
    Hashtbl.iter
      (fun fid () ->
         if not (fid < Array.length eng.trans
                 && Array.exists optimized eng.trans.(fid))
         then Region.Transcfg.prune_func fid)
      affected;
    publish_epoch eng ~pruned:!pruned
      ~fids:(Hashtbl.fold (fun fid () acc -> fid :: acc) affected []);
    List.length victims
  end

(** Compact the Main/Cold sections: rewind the cursors and re-place every
    surviving optimized translation in its original publish order,
    closing the eviction holes.  [Translation.relocate] rewrites each
    survivor's instruction addresses in place, and since links, mono
    caches and published epochs all hold the translation objects, the
    move is visible everywhere without a fixup pass.  The tightened hot
    extent is remapped onto huge pages and the full state republished
    (same generation — adopting domains keep their mono caches), so the
    i-cache/I-TLB footprint shrinks back to the live code.  Returns the
    hole bytes closed (0 when there were none).  Caller must hold the
    write lease. *)
let compact_tc_locked (eng : t) : int =
  if Simcpu.Codecache.holes_bytes eng.cache = 0 then 0
  else begin
    Obs.Vmstats.bump c_tc_compact_runs;
    let survivors =
      Array.of_list
        (List.filter (fun (_, _, (tr : Translation.t)) ->
             not tr.Translation.tr_evicted)
           (Array.to_list eng.last_opt))
    in
    let holes = Simcpu.Codecache.compact_optimized eng.cache in
    Array.iter
      (fun (_, _, tr) ->
         (* cannot fail: survivors fit in the extent they vacated *)
         ignore (Translation.relocate ~cache:eng.cache tr))
      survivors;
    eng.last_opt <- survivors;
    let lo, hi = Simcpu.Codecache.main_range eng.cache in
    Simcpu.Itlb.set_huge eng.machine.itlb ~enabled:eng.opts.huge_pages ~lo ~hi;
    if Obs.Trace.on Obs.Trace.Retranslate then
      Obs.Trace.emit Obs.Trace.Retranslate
        [ ("event", Obs.Trace.S "tc_compact");
          ("survivors", Obs.Trace.I (Array.length survivors));
          ("reclaimed", Obs.Trace.I holes) ];
    publish_epoch eng;
    holes
  end

(** Public lifecycle entry points: like [retranslate_all], each takes the
    write lease for its whole run — lifecycle mutation serializes against
    lazy translation drains, and a lease-holding drainer never observes a
    half-pruned table. *)
let evict_cold (eng : t) ~(threshold : int) : int =
  with_lease eng (fun () -> evict_cold_locked eng ~threshold)

let compact_tc (eng : t) : int =
  with_lease eng (fun () -> compact_tc_locked eng)

(** One lifecycle tick, the policy form the server/bench drives: decay +
    evict below [opts.tc_evict_threshold], then compact if [opts.tc_compact]
    asked for it.  A no-op (0, 0) until optimized code is published or
    while the threshold is 0 (the default: lifecycle off).  Returns
    (victims evicted, hole bytes reclaimed by compaction). *)
let tc_lifecycle_tick (eng : t) : int * int =
  if eng.opts.tc_evict_threshold <= 0 || not eng.optimized_published
  then (0, 0)
  else
    with_lease eng (fun () ->
        let evicted =
          evict_cold_locked eng ~threshold:eng.opts.tc_evict_threshold
        in
        let reclaimed =
          if eng.opts.tc_compact then compact_tc_locked eng else 0
        in
        (evicted, reclaimed))

(* ------------------------------------------------------------------ *)
(* Jumpstart: capture and adopt optimized TC images (§6.2)             *)
(* ------------------------------------------------------------------ *)

(** Capture the warmed engine's state as a jumpstart image: the canonical
    profile, the TransCFG registry, and the optimized publish sequence
    with its current-generation link state.  [None] until a
    retranslate-all has published optimized code. *)
let capture_image (eng : t) : Jumpstart.image option =
  (* evicted translations never enter an image: an adopting process
     replays the publish sequence through fresh placement, so the image
     of a post-eviction engine is the compacted survivor sequence —
     restoring it onto a cold cache reproduces the dense layout *)
  let live_opt =
    Array.of_list
      (List.filter
         (fun (_, _, (tr : Translation.t)) -> not tr.Translation.tr_evicted)
         (Array.to_list eng.last_opt))
  in
  if not eng.optimized_published || Array.length live_opt = 0 then None
  else begin
    let idx = Hashtbl.create 64 in
    Array.iteri
      (fun i (_, _, (tr : Translation.t)) ->
         Hashtbl.replace idx tr.Translation.tr_id i)
      live_opt;
    (* links smashed in the current generation between optimized
       translations, as publish-order index quadruples (translation ids
       and entry pointers don't survive a process boundary; publish
       indices do) *)
    let links = ref [] in
    Array.iteri
      (fun si (_, _, (src : Translation.t)) ->
         Array.iteri
           (fun eid (lk : Translation.link) ->
              if lk.Translation.lk_gen = eng.generation then
                match lk.Translation.lk_target with
                | Some (dst, en) ->
                  (match Hashtbl.find_opt idx dst.Translation.tr_id with
                   | Some di ->
                     Option.iter
                       (fun ei -> links := (si, eid, di, ei) :: !links)
                       (Array.find_index (( == ) en) dst.Translation.tr_entries)
                   | None -> ())
                | None -> ())
           src.Translation.tr_links)
      live_opt;
    Some { Jumpstart.im_prof = Vm.Prof.export ();
           im_tcfg = Region.Transcfg.export ();
           im_next_block_id = !Region.Select.next_block_id;
           im_trans = Array.map (fun (p, nb, _) -> (p, nb)) live_opt;
           im_links = Array.of_list (List.rev !links);
           im_opt_bytes = eng.opt_bytes }
  end

(** Adopt a deserialized jumpstart image into a freshly installed engine:
    import the profile and TransCFG, then replay the image's publish
    sequence through the normal serial publish path — code-cache offsets,
    translation ids, inline-cache ids and the epoch come out exactly as a
    live retranslate-all would have assigned them, but no region is
    formed, no HHIR is built, and [retranslate.runs] stays at zero.  The
    engine lands in the optimized phase: no profiling translation will
    ever be compiled. *)
let adopt_image (eng : t) (im : Jumpstart.image) : unit =
  Vm.Prof.import im.Jumpstart.im_prof;
  Region.Transcfg.import im.Jumpstart.im_tcfg;
  Region.Select.next_block_id :=
    max !Region.Select.next_block_id im.Jumpstart.im_next_block_id;
  eng.phase <- POptimized;
  eng.generation <- eng.generation + 1;
  eng.trans <- fresh_rows eng.hunit None;
  eng.nocompile <- fresh_rows eng.hunit false;
  let placed = ref [] in
  Array.iter
    (fun ((p : Translation.prepared), nb) ->
       match finish_translation eng (p, nb) with
       | Some tr ->
         publish eng tr;
         eng.n_optimized <- eng.n_optimized + 1;
         eng.opt_bytes <- eng.opt_bytes + tr.Translation.tr_bytes;
         placed := (p, nb, tr) :: !placed
       | None -> ())
    im.Jumpstart.im_trans;
  let placed = Array.of_list (List.rev !placed) in
  eng.last_opt <- placed;
  (* re-smash the captured bind jumps at this engine's generation *)
  Array.iter
    (fun (si, eid, di, ei) ->
       if si < Array.length placed && di < Array.length placed then begin
         let _, _, src = placed.(si) and _, _, dst = placed.(di) in
         if eid < Array.length src.Translation.tr_links
         && ei < Array.length dst.Translation.tr_entries then begin
           let lk = src.Translation.tr_links.(eid) in
           lk.Translation.lk_target <-
             Some (dst, dst.Translation.tr_entries.(ei));
           lk.Translation.lk_gen <- eng.generation
         end
       end)
    im.Jumpstart.im_links;
  eng.optimized_published <- true;
  let lo, hi = Simcpu.Codecache.main_range eng.cache in
  Simcpu.Itlb.set_huge eng.machine.itlb ~enabled:eng.opts.huge_pages ~lo ~hi;
  if Obs.Trace.on Obs.Trace.Retranslate then
    Obs.Trace.emit Obs.Trace.Retranslate
      [ ("event", Obs.Trace.S "jumpstart_adopt");
        ("generation", Obs.Trace.I eng.generation);
        ("optimized", Obs.Trace.I (Array.length placed));
        ("links", Obs.Trace.I (Array.length im.Jumpstart.im_links)) ];
  publish_epoch eng;
  adopt_here eng

(* ------------------------------------------------------------------ *)
(* Call dispatch and installation                                      *)
(* ------------------------------------------------------------------ *)

let call_func (eng : t) (u : Hhbc.Hunit.t) (fid : int) (args : value array)
    (this_ : value) : value =
  Vm.Prof.record_func_entry fid;
  let f = Hhbc.Hunit.func u fid in
  let frame = Vm.Interp.make_frame u f args this_ in
  match try_enter eng frame 0 with
  | Vm.Interp.Returned v -> v
  | Vm.Interp.Resumed pc -> Vm.Interp.run frame pc
  | Vm.Interp.NoTranslation -> Vm.Interp.run frame 0

(** Create an engine for a loaded unit and install it as the VM's execution
    engine (call dispatcher + translation hook). *)
let install ?(opts : Jit_options.t option) (u : Hhbc.Hunit.t) : t =
  let opts = match opts with Some o -> o | None -> Jit_options.default () in
  (* the one config-resolution step: flags > env > defaults fold into
     [opts] here, once — nothing on the dispatch path reads the
     environment (see Jit_options.resolve; idempotent on a record shared
     across installs) *)
  Jit_options.resolve opts;
  Obs.Vmstats.enabled := opts.stats;
  Obs.Vmstats.reset ();
  Obs.Trace.configure ~spec:opts.trace ?path:opts.trace_out ();
  (* the span and profiler layers share one knob: both are request-level
     attribution, both off by default, and Serving.measure forces both
     on for the deterministic measured burst *)
  Obs.Span.enabled := opts.spans;
  Obs.Span.reset_local ();
  (* the cycle-attribution profiler costs a probe per interpreted
     instruction, so it is not tied to the cheap boundary-only spans:
     Serving.measure forces it on for the deterministic measured burst
     (--serving-report / --profile-folded), where wall clock is not the
     quantity being measured *)
  Obs.Profiler.enabled := false;
  Obs.Profiler.reset ();
  Obs.Snapshot.configure ?path:opts.snapshot_out
    ~every:opts.snapshot_interval ();
  let eng = {
    opts;
    hunit = u;
    machine = Exec.create_machine ();
    cache = Simcpu.Codecache.create ?budget:opts.code_budget ();
    trans = fresh_rows u None;
    nocompile = fresh_rows u false;
    generation = 0;
    phase = PProfiling;
    optimized_published = false;
    n_live = 0; n_profiling = 0; n_optimized = 0;
    opt_bytes = 0; compile_count = 0;
    sort_cache = None;
    last_opt = [||];
    published = Atomic.make empty_epoch;
    main_ctx = None;
  } in
  (* translation ids, inline-cache ids and TransCFG block ids restart per
     engine: sequential runs (bench determinism sweeps) produce identical
     tc-print reports and trace streams *)
  Translation.reset_ids ();
  Translate_queue.reset ~capacity:Translate_queue.default_capacity ();
  Region.Select.next_block_id := 0;
  Region.Transcfg.reset ();
  Vm.Prof.reset ();
  Vm.Interp.reset_instr_count ();
  Region.Relax.reset_stats ();
  Hhir_opt.Rce.reset_stats ();
  (* the interpreter's per-call-site dispatch caches follow the engine's
     cache policy; stale entries from a previous engine die here *)
  Vm.Interp.dispatch_caches_enabled := opts.dispatch_caches;
  Vm.Interp.reset_meth_site_caches ();
  (* lower every function to its flat threaded-dispatch form now (install
     runs after any hhbbc rewrites): serving workers never contend on the
     flatten path mid-burst, and first-request latency excludes lowering *)
  Vm.Interp.preflatten u;
  (if opts.mode = Jit_options.Interp then begin
     Vm.Interp.call_dispatch := Vm.Interp.call_interpreted;
     Vm.Interp.translation_hook := (fun _ _ -> Vm.Interp.NoTranslation);
     Vm.Interp.hook_active := false
   end else begin
     Vm.Interp.call_dispatch := (fun u fid args this_ -> call_func eng u fid args this_);
     Vm.Interp.translation_hook := (fun frame pc -> try_enter eng frame pc);
     Vm.Interp.hook_active := true
   end);
  publish_epoch eng;
  eng

(* ------------------------------------------------------------------ *)
(* Request serving: context lifetime and request boundaries            *)
(* ------------------------------------------------------------------ *)

(** Give this domain a fresh dispatch context — a new machine pinned to
    the latest published epoch — until {!exit_serving}.  Serving workers
    call it once each; the deterministic measured burst calls it on the
    main domain. *)
let enter_serving (eng : t) : unit =
  Domain.DLS.set ctx_key
    (Some (new_ctx (Exec.create_machine ()) (Atomic.get eng.published)))

(** Request boundary: adopt the latest published epoch if it changed. *)
let begin_request (eng : t) : unit = adopt (ctx eng) (Atomic.get eng.published)

(** Drop this domain's context from {!enter_serving}; returns its
    machine so the scheduler can fold its counters into the engine's with
    [merge_machine]. *)
let exit_serving () : Exec.machine option =
  match Domain.DLS.get ctx_key with
  | None -> None
  | Some c ->
    Domain.DLS.set ctx_key None;
    Some c.dx_machine

(** Fold a joined serving context's machine counters into the engine's
    main machine, so process-wide exec/i-cache/I-TLB totals and every
    translation's entry and cycle counts stay exact. *)
let merge_machine (eng : t) (w : Exec.machine) : unit =
  let m = eng.machine in
  m.Exec.instrs_executed <- m.Exec.instrs_executed + w.Exec.instrs_executed;
  m.Exec.cycles_live <- m.Exec.cycles_live + w.Exec.cycles_live;
  m.Exec.cycles_prof <- m.Exec.cycles_prof + w.Exec.cycles_prof;
  m.Exec.cycles_opt <- m.Exec.cycles_opt + w.Exec.cycles_opt;
  Exec.fold_counts m w;
  let mi = m.Exec.icache and wi = w.Exec.icache in
  mi.Simcpu.Icache.accesses <- mi.Simcpu.Icache.accesses + wi.Simcpu.Icache.accesses;
  mi.Simcpu.Icache.misses <- mi.Simcpu.Icache.misses + wi.Simcpu.Icache.misses;
  let mt = m.Exec.itlb and wt = w.Exec.itlb in
  mt.Simcpu.Itlb.accesses <- mt.Simcpu.Itlb.accesses + wt.Simcpu.Itlb.accesses;
  mt.Simcpu.Itlb.misses <- mt.Simcpu.Itlb.misses + wt.Simcpu.Itlb.misses

let code_bytes (eng : t) : int = Simcpu.Codecache.bytes_used eng.cache

(** Sample the engine's level-style metrics into vmstats gauges.  These are
    cheap to read on demand but would be expensive to maintain per event,
    so dumps ([--vmstats]) sync them just before reading. *)
let sync_vmstats (eng : t) : unit =
  let g name v = Obs.Vmstats.set (Obs.Vmstats.gauge name) v in
  let m = eng.machine in
  let cb s = Simcpu.Codecache.section_bytes eng.cache s in
  g "code.bytes.main" (cb Simcpu.Codecache.Main);
  g "code.bytes.cold" (cb Simcpu.Codecache.Cold);
  g "code.bytes.prof" (cb Simcpu.Codecache.Prof);
  g "code.bytes.live" (cb Simcpu.Codecache.Live);
  g "code.bytes.used" (Simcpu.Codecache.bytes_used eng.cache);
  g "codecache.holes_bytes" (Simcpu.Codecache.holes_bytes eng.cache);
  g "icache.accesses" m.icache.Simcpu.Icache.accesses;
  g "icache.misses" m.icache.Simcpu.Icache.misses;
  g "itlb.accesses" m.itlb.Simcpu.Itlb.accesses;
  g "itlb.misses" m.itlb.Simcpu.Itlb.misses;
  g "exec.instrs" m.instrs_executed;
  g "cycles.live" m.cycles_live;
  g "cycles.prof" m.cycles_prof;
  g "cycles.opt" m.cycles_opt;
  g "cycles.total" (Runtime.Ledger.read ());
  let hs = Runtime.Heap.stats () in
  g "heap.allocated" hs.Runtime.Heap.allocated;
  g "heap.freed" hs.Runtime.Heap.freed;
  g "heap.live" hs.Runtime.Heap.live;
  g "heap.incref_ops" hs.Runtime.Heap.incref_ops;
  g "heap.decref_ops" hs.Runtime.Heap.decref_ops;
  g "interp.instrs" (Vm.Interp.instr_count ());
  g "trans.live" eng.n_live;
  g "trans.profiling" eng.n_profiling;
  g "trans.optimized" eng.n_optimized;
  g "engine.generation" eng.generation;
  g "engine.compiles" eng.compile_count
