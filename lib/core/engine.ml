(** The JIT engine (paper §4, Fig. 5): translation cache, compilation modes,
    OSR side-exit handling, retranslate-all, and function sorting.

    Execution model: every PHP-level call goes through {!call_func}, which
    tries to enter compiled code at the function entry; the interpreter
    consults {!try_enter} at taken jumps.  Compiled code leaves through
    ReqBind exits, which either chain directly into another translation
    (translation linking / retranslation chains) or resume the interpreter
    with the VM state the exit spec describes — including materializing
    partially-inlined callee frames (§5.3.1). *)

open Runtime.Value
module Rd = Region.Rdesc

type phase = PProfiling | POptimized

(** Per-srckey translation slot: the retranslation chain as a growable
    array (publish is O(1) amortized and keeps insertion order — no list
    re-walk per publish) plus the monomorphic last-hit entry cache.  The
    cache remembers the last entry that matched here; re-entry validates
    only that entry's guards before falling back to the full chain walk. *)
type slot = {
  mutable sl_chain : Translation.t array;  (* first [sl_len] are live *)
  mutable sl_len : int;
  mutable sl_mono : (Translation.t * Translation.entry) option;
}

(** An immutable published snapshot of the dispatch state (paper §5.1's
    publish step, generalized to parallel serving): the srckey tables and
    retranslation chains frozen at a publish point, plus the translation-
    link generation and the huge-page mapping of the hot section that were
    current then.  The engine swaps the published epoch with one atomic
    store; request-serving worker domains dispatch against their pinned
    epoch and adopt the latest one only at request boundaries, so a
    request racing a retranslate-all runs entirely on the old epoch or
    entirely on the new one — never on a half-published chain.  Slots are
    private trimmed copies, so later main-domain mutation (lazy compiles,
    chain growth, mono-cache updates) cannot leak into a published view. *)
type epoch = {
  ep_seq : int;                            (* publish sequence number *)
  ep_gen : int;                            (* link generation at publish *)
  ep_trans : slot option array array;
  ep_huge : bool;                          (* hot-section huge-page map *)
  ep_main_lo : int;
  ep_main_hi : int;
}

let empty_epoch : epoch =
  { ep_seq = 0; ep_gen = 0; ep_trans = [||];
    ep_huge = false; ep_main_lo = 0; ep_main_hi = 0 }

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
  (* dense per-function translation tables indexed by srckey pc:
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
  (* the epoch parallel-serving domains dispatch against; swapped with a
     single atomic store by [publish_epoch] *)
  published : epoch Atomic.t;
}

(** Per-domain serving state: the pinned epoch, a private SimCPU machine
    (i-cache, I-TLB, inline caches), and a private monomorphic last-hit
    table mirroring the epoch's slot dimensions.  Lives in domain-local
    storage; the main domain has none and keeps the historical fully
    mutable dispatch path. *)
type serve_ctx = {
  sx_machine : Exec.machine;
  mutable sx_epoch : epoch;
  mutable sx_mono : (Translation.t * Translation.entry) option array array;
}

let serve_key : serve_ctx option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let current : t option ref = ref None

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
(* parallel-serving dispatch: misses in a worker's frozen epoch, and the
   subset that ended in the interpreter (lazy translation absorbs the
   difference; with LAZY_TRANSLATE=0 the two counters coincide) *)
let c_serving_miss = Obs.Vmstats.counter "serving.translation_miss"
let c_serving_fallback = Obs.Vmstats.counter "serving.interp_fallback"
(* lazy in-burst translation under the write lease *)
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

let body_len (u : Hhbc.Hunit.t) (fid : int) : int =
  Array.length (Hhbc.Hunit.func u fid).Hhbc.Instr.fn_body

let fresh_trans (u : Hhbc.Hunit.t) : slot option array array =
  Array.init (Hhbc.Hunit.num_funcs u)
    (fun fid -> Array.make (body_len u fid + 1) None)

let fresh_nocompile (u : Hhbc.Hunit.t) : bool array array =
  Array.init (Hhbc.Hunit.num_funcs u)
    (fun fid -> Array.make (body_len u fid + 1) false)

(** Grow the outer tables if the unit gained functions after install. *)
let ensure_fid (eng : t) (fid : int) : unit =
  if fid >= Array.length eng.trans then begin
    let n = max (Hhbc.Hunit.num_funcs eng.hunit) (fid + 1) in
    let grow old mk =
      Array.init n
        (fun i -> if i < Array.length old then old.(i) else mk i)
    in
    eng.trans <-
      grow eng.trans (fun i -> Array.make (body_len eng.hunit i + 1) None);
    eng.nocompile <-
      grow eng.nocompile (fun i -> Array.make (body_len eng.hunit i + 1) false)
  end

(** Slot lookup in a dense srckey table: the live [eng.trans] or a frozen
    epoch's [ep_trans]. *)
let slot_at (tbl : slot option array array) (fid : int) (pc : int)
  : slot option =
  if fid < Array.length tbl then
    let row = tbl.(fid) in
    if pc < Array.length row then row.(pc) else None
  else None

let get_or_create_slot (eng : t) (fid : int) (pc : int) : slot =
  ensure_fid eng fid;
  let row = eng.trans.(fid) in
  let row =
    if pc < Array.length row then row
    else begin
      let bigger = Array.make (pc + 1) None in
      Array.blit row 0 bigger 0 (Array.length row);
      eng.trans.(fid) <- bigger;
      bigger
    end
  in
  match row.(pc) with
  | Some sl -> sl
  | None ->
    let sl = { sl_chain = [||]; sl_len = 0; sl_mono = None } in
    row.(pc) <- Some sl;
    sl

let no_compile (eng : t) (fid : int) (pc : int) : bool =
  fid < Array.length eng.nocompile
  && pc < Array.length eng.nocompile.(fid)
  && eng.nocompile.(fid).(pc)

let mark_no_compile (eng : t) (fid : int) (pc : int) : unit =
  ensure_fid eng fid;
  let row = eng.nocompile.(fid) in
  if pc < Array.length row then row.(pc) <- true

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
    domains; [snapshot] supplies block weights there (the live profile
    counters are main-domain state).  Returns the prepared translation
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
    account for it.  Serial, main domain only — code-cache offsets,
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

(** Compile a region into an assembled translation (serial path). *)
let compile_region (eng : t) ~(fid : int) ~(region : Rd.t)
    ~(kind : Translation.kind) : Translation.t option =
  finish_translation eng (prepare_region eng ~snapshot:None ~fid ~region ~kind)

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
    input types through [oracle].  The serial path feeds it the live
    frame; the lazy in-burst path (write-lease drain) feeds it the type
    vectors captured when a serving worker missed.  Caller must be the
    single compile-side writer: the main domain outside a burst, or the
    write-lease holder during one. *)
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
      match compile_region eng ~fid ~region ~kind with
      | Some tr ->
        (match kind with
         | Translation.KLive ->
           eng.n_live <- eng.n_live + 1;
           let cc = live_compile_cycles block.b_len in
           Runtime.Ledger.charge_jit cc;
           if Obs.Profiler.on () then
             Obs.Profiler.record
               ~frames:[ "jit-compile";
                         (Hhbc.Hunit.func eng.hunit fid).fn_name ]
               ~cycles:cc
         | Translation.KProfiling ->
           eng.n_profiling <- eng.n_profiling + 1;
           let cc = prof_compile_cycles block.b_len in
           Runtime.Ledger.charge_jit cc;
           if Obs.Profiler.on () then
             Obs.Profiler.record
               ~frames:[ "jit-compile";
                         (Hhbc.Hunit.func eng.hunit fid).fn_name ]
               ~cycles:cc
         | Translation.KOptimized -> ());
        publish eng tr;
        Some tr
      | None ->
        (* budget exhausted *)
        mark_no_compile eng fid pc;
        None
    end
  end

(** Lazily compile a translation for the live (frame, pc) — the serial
    main-domain path. *)
let compile_lazy (eng : t) (frame : Vm.Interp.frame) (pc : int)
  : Translation.t option =
  let oracle (loc : Rd.loc) : Hhbc.Rtype.t =
    match loc with
    | Rd.LLocal l -> Hhbc.Rtype.of_value frame.locals.(l)
    | Rd.LStack d -> Hhbc.Rtype.of_value frame.stack.(frame.sp - 1 - d)
  in
  compile_at eng ~fid:frame.func.fn_id ~pc ~oracle

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

(** Find a translation entry whose preconditions hold for the live state.
    The monomorphic last-hit cache is consulted first: steady-state
    re-entry validates only the cached entry's guards instead of walking
    the whole retranslation chain.  On the main domain the cache lives in
    the slot itself; a serving worker ([sx]) reads the frozen epoch's
    slots and keeps the mono cache in its own domain-local table (frozen
    slots are shared across domains and must not be written).  [m] is
    the domain's machine: the probes charge and count through it. *)
let select_entry (eng : t) (sx : serve_ctx option) (m : Exec.machine)
    (frame : Vm.Interp.frame) (pc : int)
  : (Translation.t * Translation.entry) option =
  let fid = frame.func.fn_id in
  let slot =
    match sx with
    | None -> slot_at eng.trans fid pc
    | Some c -> slot_at c.sx_epoch.ep_trans fid pc
  in
  match slot with
  | None -> None
  | Some sl ->
    let mono_get () =
      match sx with
      | None -> sl.sl_mono
      | Some c ->
        if fid < Array.length c.sx_mono && pc < Array.length c.sx_mono.(fid)
        then c.sx_mono.(fid).(pc)
        else None
    in
    let mono_set v =
      match sx with
      | None -> sl.sl_mono <- v
      | Some c ->
        if fid < Array.length c.sx_mono && pc < Array.length c.sx_mono.(fid)
        then c.sx_mono.(fid).(pc) <- v
    in
    let mono_hit =
      if eng.opts.dispatch_caches then
        match mono_get () with
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
         if eng.opts.dispatch_caches then mono_set found
       | None -> Obs.Vmstats.bump_on m.Exec.vstats c_chain_miss);
      found

(* ------------------------------------------------------------------ *)
(* Epoch publish                                                       *)
(* ------------------------------------------------------------------ *)

(** Publish the dispatch state as a new immutable epoch (single atomic
    store).  Rows are rebuilt from the live tables as trimmed private slot
    copies, so no later main-domain mutation (lazy compiles, chain growth,
    mono-cache updates) can reach a published view; in-flight requests
    keep dispatching on the epoch they pinned and adopt this one at their
    next request boundary.

    Without [fids] every row is rebuilt: [install] (the empty gen-0
    epoch), the end of every retranslate-all, compaction, jumpstart
    adoption, and a scheduler before fanning out.  With [~fids] only those
    functions' rows are rebuilt and every other row is shared with the
    previous epoch: a queue drain passes the functions its translations
    landed in, an eviction those whose chains shrank.  This is exact
    because inside a burst every write to [eng.trans] happens under the
    write lease and is followed by a publish, and the burst starts with a
    full one — the live rows are the previous epoch's rows plus what was
    just drained or evicted.  Only a [~fids] publish counts as
    [epoch.delta_publish]; [~fids:[]] publishes nothing.  Write-lease
    holder (or main domain) only, so the sequence of epochs is total. *)
let publish_epoch ?(fids : int list option) (eng : t) : unit =
  if fids <> Some [] then begin
    let freeze_row =
      Array.map
        (Option.map (fun (sl : slot) ->
             { sl_chain = Array.sub sl.sl_chain 0 sl.sl_len;
               sl_len = sl.sl_len;
               sl_mono = None }))
    in
    let prev = Atomic.get eng.published in
    let ep_trans =
      match fids with
      | None -> Array.map freeze_row eng.trans
      | Some fids ->
        Obs.Vmstats.bump c_epoch_delta;
        let rows =
          Array.init (Array.length eng.trans) (fun fid ->
              if fid < Array.length prev.ep_trans then prev.ep_trans.(fid)
              else [||])
        in
        List.iter (fun fid -> rows.(fid) <- freeze_row eng.trans.(fid)) fids;
        rows
    in
    let lo, hi = Simcpu.Codecache.main_range eng.cache in
    Atomic.set eng.published
      { ep_seq = prev.ep_seq + 1;
        ep_gen = eng.generation;
        ep_trans;
        ep_huge = eng.opts.huge_pages && eng.optimized_published;
        ep_main_lo = lo;
        ep_main_hi = hi }
  end

(* ------------------------------------------------------------------ *)
(* Lazy in-burst translation (write lease + incremental epoch publish) *)
(* ------------------------------------------------------------------ *)

(* First entry of [tr] whose guards are subsumed by the captured types —
   the entry the requester's chain walk would have selected. *)
let entry_for_types (tr : Translation.t) ~(locals : Hhbc.Rtype.t array)
    ~(stack : Hhbc.Rtype.t array) : Translation.entry option =
  let entries = tr.Translation.tr_entries in
  let rec go j =
    if j >= Array.length entries then None
    else if Translation.entry_covers ~locals ~stack entries.(j) then
      Some entries.(j)
    else go (j + 1)
  in
  go 0

(** Drain the translation-request queue under the write lease: compile
    each request against the live profile/TransCFG state (which the lease
    protects), smash the requesting bind jumps, and publish everything
    that landed as one epoch delta.  Requests are consumed in
    queue-sequence order, so translation ids, code-cache offsets,
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
        if not (no_compile eng fid pc) then begin
          let sl = slot_at eng.trans fid pc in
          let chain_len = match sl with Some sl -> sl.sl_len | None -> 0 in
          (* authoritative dedup: an earlier drain (or the requester's
             pre-burst warmup) may already cover these types — the
             requester just hasn't adopted the epoch that has it *)
          let covered =
            match sl with
            | None -> false
            | Some sl ->
              let rec any i =
                i < sl.sl_len
                && (entry_for_types sl.sl_chain.(i) ~locals ~stack <> None
                    || any (i + 1))
              in
              any 0
          in
          if covered then Obs.Vmstats.bump c_lazy_covered
          else if chain_len < eng.opts.max_live_per_srckey then begin
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
                 (match entry_for_types tr ~locals ~stack with
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

(** Frozen-dispatch miss with lazy translation on: capture the frame's
    types, enqueue a translation request, and try to win the write lease.
    The winner drains the whole queue (its own request included) and —
    still under the lease, while [eng.trans] is stable — looks its own
    answer up so it can enter the fresh code immediately, exactly like
    the single-domain lazy path; losers return [None] and interpret,
    adopting the result via the epoch delta at a later request boundary. *)
let lazy_translate_miss (eng : t) (m : Exec.machine)
    (frame : Vm.Interp.frame) (pc : int)
    ~(via : (Translation.t * int) option)
  : (Translation.t * Translation.entry) option =
  let fid = frame.func.fn_id in
  (* racy read of [nocompile] (rows are replaced wholesale under the
     lease): a stale [true] skips a request that would be rejected
     anyway, a stale [false] is re-checked at drain time *)
  if no_compile eng fid pc then None
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
          match slot_at eng.trans fid pc with
          | None -> None
          | Some sl ->
            let found = chain_find m frame sl in
            if found <> None then Obs.Vmstats.bump c_lazy_entered;
            found)
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

(** Attempt to enter compiled code at (frame, pc); handles chaining through
    exits until compiled execution ends.  This function implements the
    [translation_hook] contract.

    Two dispatch modes share this body.  On the main domain ([sx = None])
    the historical fully mutable path runs: lazy compilation on misses,
    bind-jump smashing, slot-resident mono caches, TransCFG arc recording.
    On a serving worker ([sx = Some _]) the frozen path runs: lookups hit
    the pinned epoch only, and a miss either falls back to the
    interpreter or, with lazy translation on, enqueues a translation
    request — a worker that wins the write lease drains the queue and
    compiles under it, so the shared code cache and id allocators only
    ever have one writer.  Links are followed read-only against the
    epoch's generation but never smashed, and the machine is the
    worker's own. *)
let try_enter (eng : t) (frame : Vm.Interp.frame) (pc : int)
  : Vm.Interp.enter_result =
  let sx = Domain.DLS.get serve_key in
  let machine, gen =
    match sx with
    | None -> eng.machine, eng.generation
    | Some c -> c.sx_machine, c.sx_epoch.ep_gen
  in
  (* the machine's account is this domain's: a frame the interpreter
     runs after this takes it instead of reading the domain-local key *)
  if frame.acct == Vm.Interp.no_acct then frame.acct <- machine.Exec.ledger;
  let frozen = sx <> None in
  let prev_prof_block : int option ref = ref None in
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
          if lk.Translation.lk_gen = gen then
            (match lk.Translation.lk_target with
             | Some (_, en) as tgt when entry_matches machine frame en ->
               Obs.Vmstats.bump_on machine.Exec.vstats c_link_follow;
               tgt
             | _ -> None)
          else begin
            (* smashed in a previous generation; dead since retranslate-all *)
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
          match select_entry eng sx machine frame pc with
          | Some e -> Some e
          | None ->
            if frozen then begin
              (* a serving worker missed in its frozen epoch *)
              Obs.Vmstats.bump_on machine.Exec.vstats c_serving_miss;
              if eng.opts.mode = Jit_options.Interp
              || not eng.opts.lazy_translate
              then None
              else lazy_translate_miss eng machine frame pc ~via
            end
            else if eng.opts.mode = Jit_options.Interp then None
            else begin
              (* lazy compilation; limit chain growth per srckey *)
              let chain_len =
                match slot_at eng.trans frame.func.fn_id pc with
                | Some sl -> sl.sl_len
                | None -> 0
              in
              if chain_len >= eng.opts.max_live_per_srckey then None
              else
                match compile_lazy eng frame pc with
                | Some _ -> select_entry eng sx machine frame pc
                | None -> None
            end
        in
        (* smash the bind: remember this exit's resolved target.  Frozen
           dispatch never smashes: links are shared, mutable, and owned by
           the main domain's current generation. *)
        (match found, via with
         | Some (dst, _), Some (src, eid)
           when eng.opts.dispatch_caches && not frozen ->
           let lk = src.Translation.tr_links.(eid) in
           lk.Translation.lk_gen <- eng.generation;
           lk.Translation.lk_target <- found;
           Obs.Vmstats.bump c_link_smashed;
           if Obs.Trace.on Obs.Trace.Link then
             Obs.Trace.emit Obs.Trace.Link
               [ ("event", Obs.Trace.S "smash");
                 ("src", Obs.Trace.I src.Translation.tr_id);
                 ("exit", Obs.Trace.I eid);
                 ("dst", Obs.Trace.I dst.Translation.tr_id) ]
         | _ -> ());
        found
    in
    match entry with
    | None ->
      if frozen then begin
        Obs.Vmstats.bump_on machine.Exec.vstats c_serving_fallback;
        if Obs.Span.on () then Obs.Span.count Obs.Span.Interp
      end;
      if first then Vm.Interp.NoTranslation else Vm.Interp.Resumed pc
    | Some (tr, en) ->
      let rb = en.Translation.en_block and idx = en.Translation.en_idx in
      (* record TransCFG arcs between consecutive profiling blocks (§4.2) *)
      (* profiling translations carry instrumentation beyond the block
         counter (targeted profiles, §4.1 item 4); charge its overhead at
         each entry *)
      if tr.tr_kind = Translation.KProfiling then begin
        Runtime.Ledger.charge_jit_on machine.Exec.ledger 45;
        if Obs.Profiler.on () then
          Obs.Profiler.record ~frames:[ "jit-instrument" ] ~cycles:45
      end;
      (match tr.tr_kind with
       | Translation.KProfiling ->
         (match !prev_prof_block with
          | Some src ->
            if Obs.Trace.on Obs.Trace.Link then
              Obs.Trace.emit Obs.Trace.Link
                [ ("event", Obs.Trace.S "arc");
                  ("src", Obs.Trace.I src);
                  ("dst", Obs.Trace.I rb.Rd.b_id) ];
            (* the TransCFG arc registry is main-domain state (global
               hashtables); frozen dispatch drops arcs rather than race it.
               The per-block counters and targeted profiles still count
               per domain through Vm.Prof, so worker profiling weight is
               not lost. *)
            if not frozen then Region.Transcfg.record_arc ~src ~dst:rb.Rd.b_id
          | None -> ());
         prev_prof_block := Some rb.Rd.b_id
       | _ -> prev_prof_block := None);
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
    Array.iter
      (fun row ->
         Array.iter
           (function
             | Some sl ->
               for i = 0 to sl.sl_len - 1 do
                 Array.iter
                   (fun (lk : Translation.link) ->
                      if lk.Translation.lk_target <> None
                      && lk.Translation.lk_gen = eng.generation then
                        Obs.Vmstats.bump c_link_invalidated)
                   sl.sl_chain.(i).Translation.tr_links
               done
             | None -> ())
           row)
      eng.trans;
  eng.generation <- eng.generation + 1;
  eng.trans <- fresh_trans eng.hunit;
  eng.nocompile <- fresh_nocompile eng.hunit;
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

(** Retranslate-all takes the write lease for its whole run: it rewrites
    the translation tables, id allocators and code cache that in-burst
    lazy translation mutates under the same lease, so a retranslate fired
    mid-burst serializes against any drain in progress (and lease holders
    observe a consistent generation).  Outside a burst the lease is
    always free and this is one uncontended CAS. *)
let retranslate_all (eng : t) : int =
  Translate_queue.acquire ();
  Fun.protect ~finally:Translate_queue.release
    (fun () -> retranslate_all_locked eng)

(* ------------------------------------------------------------------ *)
(* Code-cache lifecycle: liveness decay, eviction, Main compaction     *)
(* ------------------------------------------------------------------ *)

(** One liveness decay tick over the optimized publish sequence: halve
    every translation's score and add the entries it received since the
    last tick.  A translation the traffic stopped entering decays toward
    zero geometrically while still-hot ones are replenished each tick, so
    the score is a recency-weighted exec count, not a lifetime one. *)
let decay_liveness (eng : t) : unit =
  Array.iter
    (fun (_, _, (tr : Translation.t)) ->
       if not tr.Translation.tr_evicted then begin
         let execs = tr.Translation.tr_prog.Exec.pg_execs in
         let fresh = execs - tr.Translation.tr_exec_mark in
         tr.Translation.tr_live_score <-
           (tr.Translation.tr_live_score asr 1) + fresh;
         tr.Translation.tr_exec_mark <- execs;
         tr.Translation.tr_age <- tr.Translation.tr_age + 1
       end)
    eng.last_opt

(** Evict optimized translations whose decayed liveness fell below
    [threshold].  For each victim: the srckey chain is pruned (and its
    mono cache dropped), every smashed bind jump pointing at it anywhere
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
    (* prune victims out of their srckey chains; drop mono caches that
       would otherwise keep re-validating a dead entry *)
    Hashtbl.iter
      (fun fid () ->
         if fid < Array.length eng.trans then
           Array.iter
             (function
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
                   sl.sl_mono <- None
                 end else begin
                   match sl.sl_mono with
                   | Some (tr, _) when tr.Translation.tr_evicted ->
                     sl.sl_mono <- None
                   | _ -> ()
                 end
               | None -> ())
             eng.trans.(fid))
      affected;
    (* unpatch incoming smashed bind jumps: scan every surviving chain's
       link slots and revert those whose target died.  Links smashed in
       the current generation count as invalidations (the same counter a
       retranslate-all generation bump feeds); a frozen reader racing the
       store either sees the old target — still a correct, reachable
       translation — or the unlinked state. *)
    Array.iter
      (fun row ->
         Array.iter
           (function
             | Some sl ->
               for i = 0 to sl.sl_len - 1 do
                 Array.iter
                   (fun (lk : Translation.link) ->
                      match lk.Translation.lk_target with
                      | Some (dst, _) when dst.Translation.tr_evicted ->
                        if lk.Translation.lk_gen = eng.generation
                        && Obs.Vmstats.on () then
                          Obs.Vmstats.bump c_link_invalidated;
                        lk.Translation.lk_target <- None
                      | _ -> ())
                   sl.sl_chain.(i).Translation.tr_links
               done
             | None -> ())
           row)
      eng.trans;
    (* a function with no optimized translation left: drop its profile *)
    Hashtbl.iter
      (fun fid () ->
         let any_opt = ref false in
         if fid < Array.length eng.trans then
           Array.iter
             (function
               | Some sl ->
                 for i = 0 to sl.sl_len - 1 do
                   if sl.sl_chain.(i).Translation.tr_kind
                      = Translation.KOptimized
                   then any_opt := true
                 done
               | None -> ())
             eng.trans.(fid);
         if not !any_opt then Region.Transcfg.prune_func fid)
      affected;
    publish_epoch eng
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
    (same generation — adopting workers keep their mono caches), so the
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
    in-burst lazy translation drains, and a lease-holding drainer never
    observes a half-pruned table. *)
let evict_cold (eng : t) ~(threshold : int) : int =
  Translate_queue.acquire ();
  Fun.protect ~finally:Translate_queue.release
    (fun () -> evict_cold_locked eng ~threshold)

let compact_tc (eng : t) : int =
  Translate_queue.acquire ();
  Fun.protect ~finally:Translate_queue.release
    (fun () -> compact_tc_locked eng)

(** One lifecycle tick, the policy form the server/bench drives: decay +
    evict below [opts.tc_evict_threshold], then compact if [opts.tc_compact]
    asked for it.  A no-op (0, 0) until optimized code is published or
    while the threshold is 0 (the default: lifecycle off).  Returns
    (victims evicted, hole bytes reclaimed by compaction). *)
let tc_lifecycle_tick (eng : t) : int * int =
  if eng.opts.tc_evict_threshold <= 0 || not eng.optimized_published
  then (0, 0)
  else begin
    Translate_queue.acquire ();
    Fun.protect ~finally:Translate_queue.release
      (fun () ->
         let evicted =
           evict_cold_locked eng ~threshold:eng.opts.tc_evict_threshold
         in
         let reclaimed =
           if eng.opts.tc_compact then compact_tc_locked eng else 0
         in
         (evicted, reclaimed))
  end

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
                     let entries = dst.Translation.tr_entries in
                     let ei = ref (-1) in
                     Array.iteri
                       (fun j e -> if !ei < 0 && e == en then ei := j)
                       entries;
                     if !ei >= 0 then links := (si, eid, di, !ei) :: !links
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
  eng.trans <- fresh_trans eng.hunit;
  eng.nocompile <- fresh_nocompile eng.hunit;
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
  publish_epoch eng

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
    trans = fresh_trans u;
    nocompile = fresh_nocompile u;
    generation = 0;
    phase = PProfiling;
    optimized_published = false;
    n_live = 0; n_profiling = 0; n_optimized = 0;
    opt_bytes = 0; compile_count = 0;
    sort_cache = None;
    last_opt = [||];
    published = Atomic.make empty_epoch;
  } in
  current := Some eng;
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
(* Parallel request serving (per-domain dispatch contexts)             *)
(* ------------------------------------------------------------------ *)

let fresh_mono (ep : epoch)
  : (Translation.t * Translation.entry) option array array =
  Array.map (fun row -> Array.make (Array.length row) None) ep.ep_trans

let apply_epoch_itlb (ctx : serve_ctx) : unit =
  Simcpu.Itlb.set_huge ctx.sx_machine.Exec.itlb ~enabled:ctx.sx_epoch.ep_huge
    ~lo:ctx.sx_epoch.ep_main_lo ~hi:ctx.sx_epoch.ep_main_hi

(** Turn this domain into a serving worker: pin the latest published epoch
    and install a frozen dispatch context (private machine, private mono
    table).  The scheduler calls this once per worker domain. *)
let enter_serving (eng : t) : unit =
  let ep = Atomic.get eng.published in
  let ctx =
    { sx_machine = Exec.create_machine (); sx_epoch = ep;
      sx_mono = fresh_mono ep }
  in
  apply_epoch_itlb ctx;
  Domain.DLS.set serve_key (Some ctx)

(** Request boundary: adopt the latest published epoch if it changed.  The
    mono table is rebuilt (its entries point at the old epoch's chains)
    and the I-TLB huge-page mapping tracks the new hot-section extent. *)
let begin_request (eng : t) : unit =
  match Domain.DLS.get serve_key with
  | None -> ()
  | Some ctx ->
    let ep = Atomic.get eng.published in
    if ep.ep_seq <> ctx.sx_epoch.ep_seq then begin
      if Obs.Span.on () then Obs.Span.count Obs.Span.Adopt;
      (* adopting an epoch delta (same generation) keeps the mono table:
         its cached entries are still current-generation translations
         whose guards are re-validated on every hit, and lookups bound
         themselves by the table's own dimensions.  Only a generation
         change (retranslate-all) invalidates the cached entries. *)
      let keep_mono = ep.ep_gen = ctx.sx_epoch.ep_gen in
      ctx.sx_epoch <- ep;
      if not keep_mono then ctx.sx_mono <- fresh_mono ep;
      apply_epoch_itlb ctx
    end

(** Leave serving mode; returns the worker's machine so the scheduler can
    fold its counters into the engine's with [merge_machine]. *)
let exit_serving () : Exec.machine option =
  match Domain.DLS.get serve_key with
  | None -> None
  | Some ctx ->
    Domain.DLS.set serve_key None;
    Some ctx.sx_machine

(** Fold a joined serving worker's machine counters into the engine's main
    machine, so process-wide exec/i-cache/I-TLB totals stay exact. *)
let merge_machine (eng : t) (w : Exec.machine) : unit =
  let m = eng.machine in
  m.Exec.instrs_executed <- m.Exec.instrs_executed + w.Exec.instrs_executed;
  m.Exec.cycles_live <- m.Exec.cycles_live + w.Exec.cycles_live;
  m.Exec.cycles_prof <- m.Exec.cycles_prof + w.Exec.cycles_prof;
  m.Exec.cycles_opt <- m.Exec.cycles_opt + w.Exec.cycles_opt;
  let mi = m.Exec.icache and wi = w.Exec.icache in
  mi.Simcpu.Icache.accesses <- mi.Simcpu.Icache.accesses + wi.Simcpu.Icache.accesses;
  mi.Simcpu.Icache.misses <- mi.Simcpu.Icache.misses + wi.Simcpu.Icache.misses;
  let mt = m.Exec.itlb and wt = w.Exec.itlb in
  mt.Simcpu.Itlb.accesses <- mt.Simcpu.Itlb.accesses + wt.Simcpu.Itlb.accesses;
  mt.Simcpu.Itlb.misses <- mt.Simcpu.Itlb.misses + wt.Simcpu.Itlb.misses

let code_bytes (eng : t) : int = Simcpu.Codecache.bytes_used eng.cache

(** Retranslation-chain length at a srckey (test observability: the lease
    contention test asserts racing misses produced exactly one entry). *)
let chain_length (eng : t) ~(fid : int) ~(pc : int) : int =
  match slot_at eng.trans fid pc with Some sl -> sl.sl_len | None -> 0

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
