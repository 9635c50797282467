(** JIT configuration: one knob per optimization the paper evaluates
    (Fig. 10) plus the execution-mode selector (Fig. 8) and the code-size
    budget (Fig. 11).

    {b Resolution model.}  A [t] is a builder: callers set explicit fields
    (CLI flags), then [Engine.install] runs {!resolve} exactly once, which
    folds every environment fallback into the record and freezes it.  The
    precedence at every knob is

      explicit flag  >  environment variable  >  built-in default

    — an explicit setting is anything that moved a field off its
    0/None/unset sentinel before [resolve] ran.  Nothing on the dispatch
    path reads the environment, and no knob is process-global: every one
    lives in the record and takes effect at install. *)

type mode =
  | Interp        (** bytecode interpreter only *)
  | Tracelet      (** gen-1: live (tracelet) translations only *)
  | ProfileOnly   (** profiling translations, never optimized (§6.1) *)
  | Region        (** gen-2: profile -> retranslate-all -> optimized *)

type t = {
  mutable mode : mode;
  (* HHIR optimizations (Fig. 10) *)
  mutable inlining : bool;
  mutable rce : bool;
  mutable guard_relax : bool;
  mutable method_dispatch : bool;     (* profile-guided dispatch *)
  mutable inline_cache : bool;
  (* Vasm / whole-program *)
  mutable pgo_layout : bool;          (* profile-guided block layout + split *)
  mutable function_sort : bool;       (* C3 function sorting (§5.1.1) *)
  mutable huge_pages : bool;          (* §5.1.2 *)
  (* other PGO consumers, for the "all PGO" experiment *)
  mutable load_elim : bool;
  mutable store_elim : bool;
  mutable gvn : bool;
  mutable simplify : bool;
  (* hot-path dispatch caches: monomorphic last-hit entry caches,
     translation linking (bind-jump smashing), and the interpreter's
     per-call-site method-dispatch caches.  These are pure wall-clock
     engineering — they never change program output — but can be switched
     off to verify exactly that (see test_jit's cache-parity test). *)
  mutable dispatch_caches : bool;
  (* observability (lib/obs): the vmstats probe knob and the trace-event
     configuration.  [stats] gates every Vmstats probe in the engine,
     interpreter, region former, HHIR pipeline and SimCPU (default on; the
     overhead is benchmarked, see EXPERIMENTS.md).  [trace] is a trace
     category spec ("translate,link", "all", ...; None = off) and
     [trace_out] an optional JSONL sink path; both are resolved once at
     engine install — no per-run environment reads anywhere else. *)
  mutable stats : bool;
  mutable trace : string option;
  mutable trace_out : string option;
  (* request-level spans + cycle-attribution profiler ([--spans] /
     [SPANS=1]; default off).  Gates Obs.Span and Obs.Profiler recording
     during serving bursts; [Serving.measure] forces both on for the
     deterministic measured burst regardless of this knob. *)
  mutable spans : bool;
  (* time-series gauge snapshots during serving bursts: JSONL sink path
     and sample interval in completed requests ([--snapshot-out] /
     [--snapshot-interval], [SNAPSHOT_OUT] / [SNAPSHOT_INTERVAL];
     interval 0 = off). *)
  mutable snapshot_out : string option;
  mutable snapshot_interval : int;
  (* policy *)
  mutable code_budget : int option;   (* bytes; None = unlimited *)
  mutable max_live_per_srckey : int;  (* retranslation-chain length limit *)
  mutable nregs : int;
  mutable max_region_instrs : int;
  mutable max_inline_instrs : int;    (* partial-inlining budget *)
  (* retranslate-all compile parallelism: number of domains running the
     region -> HHIR -> vasm compile phase ([--jit-workers N] /
     [JIT_WORKERS]; 1 = serial; 0 = unset, resolved to the environment
     or 1 at install).  The publish phase is always serial and
     deterministic, so output is identical for any value. *)
  mutable jit_workers : int;
  (* request-serving parallelism: number of domains the request scheduler
     (Server.Serving) fans endpoint requests across ([--request-workers N]
     / [REQUEST_WORKERS]; 1 = serve on the calling domain; 0 = unset,
     resolved to the environment or 1 at install — the same 0-sentinel
     precedence rules as [jit_workers]).  Per-request outputs and the
     aggregate output hash are identical for any value. *)
  mutable request_workers : int;
  (* lazy translation (§4): a domain that misses in its epoch enqueues a
     translation request; the write-lease holder compiles it and
     publishes an incremental epoch delta, at any worker count.  Outputs
     stay bit-identical for any worker count ([LAZY_TRANSLATE=0] turns it
     off: every miss interprets). *)
  mutable lazy_translate : bool;
  (* code-cache lifecycle ([--tc-evict-threshold N] / [TC_EVICT_THRESHOLD],
     [--tc-compact] / [TC_COMPACT=1]): a lifecycle tick decays every
     optimized translation's liveness score (halve, then add execs since
     the last tick) and evicts those whose score fell below the threshold
     — links unpatched, srckey chains pruned, published as an epoch delta.
     0 disables eviction.  [tc_compact] makes each tick that evicted
     something also compact the Main/Cold sections: survivors are
     relocated to close the holes, restoring i-cache/I-TLB density and
     returning the hole bytes to the code budget. *)
  mutable tc_evict_threshold : int;
  mutable tc_compact : bool;
  (* set by {!resolve}; a resolved record is frozen — re-resolving is a
     no-op, so one record can be shared across installs (e.g. a steady-
     state measurement followed by the startup run that reuses it). *)
  mutable resolved : bool;
}

let default () : t = {
  mode = Region;
  inlining = true;
  rce = true;
  guard_relax = true;
  method_dispatch = true;
  inline_cache = true;
  pgo_layout = true;
  function_sort = true;
  huge_pages = true;
  load_elim = true;
  store_elim = true;
  gvn = true;
  simplify = true;
  dispatch_caches = true;
  stats = true;
  trace = None;
  trace_out = None;
  spans = false;
  snapshot_out = None;
  snapshot_interval = 0;
  code_budget = None;
  max_live_per_srckey = 4;
  nregs = 12;
  max_region_instrs = 200;
  max_inline_instrs = 40;
  jit_workers = 0;
  request_workers = 0;
  lazy_translate = true;
  tc_evict_threshold = 0;
  tc_compact = false;
  resolved = false;
}

let env_off (name : string) : bool =
  match Sys.getenv_opt name with
  | Some ("0" | "false" | "off") -> true
  | _ -> false

(** The single config-resolution step, run once at engine install:
    environment fallbacks fold into [t] with explicit settings winning
    (see the precedence note on {!type:t}), 0-sentinels resolve to
    concrete values, and the record freezes.  [JIT_TRACE] is a category
    spec (the legacy "1" means all categories); [JIT_STATS=0] acts as a
    stats kill-switch.  An already-resolved record is returned as is. *)
let resolve (t : t) : unit =
  if not t.resolved then begin
  t.resolved <- true;
  (match t.trace, Sys.getenv_opt "JIT_TRACE" with
   | None, (Some _ as e) -> t.trace <- e
   | _ -> ());
  (match t.trace_out, Sys.getenv_opt "JIT_TRACE_OUT" with
   | None, (Some _ as e) -> t.trace_out <- e
   | _ -> ());
  (match Sys.getenv_opt "JIT_STATS" with
   | Some ("0" | "false" | "off") -> t.stats <- false
   | _ -> ());
  (match Sys.getenv_opt "SPANS" with
   | Some ("1" | "true" | "on") -> t.spans <- true
   | _ -> ());
  (match t.snapshot_out, Sys.getenv_opt "SNAPSHOT_OUT" with
   | None, (Some _ as e) -> t.snapshot_out <- e
   | _ -> ());
  (match Sys.getenv_opt "SNAPSHOT_INTERVAL" with
   | Some s when t.snapshot_interval = 0 ->
     (match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> t.snapshot_interval <- n
      | _ -> ())
   | _ -> ());
  (match Sys.getenv_opt "JIT_WORKERS" with
   | Some s when t.jit_workers = 0 ->
     (match int_of_string_opt (String.trim s) with
      | Some n -> t.jit_workers <- max 1 n
      | None -> ())
   | _ -> ());
  if t.jit_workers <= 0 then t.jit_workers <- 1;
  (match Sys.getenv_opt "REQUEST_WORKERS" with
   | Some s when t.request_workers = 0 ->
     (match int_of_string_opt (String.trim s) with
      | Some n -> t.request_workers <- max 1 n
      | None -> ())
   | _ -> ());
  if t.request_workers <= 0 then t.request_workers <- 1;
  if env_off "LAZY_TRANSLATE" then t.lazy_translate <- false;
  (match Sys.getenv_opt "TC_EVICT_THRESHOLD" with
   | Some s when t.tc_evict_threshold = 0 ->
     (match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> t.tc_evict_threshold <- n
      | _ -> ())
   | _ -> ());
  (match Sys.getenv_opt "TC_COMPACT" with
   | Some ("1" | "true" | "on") -> t.tc_compact <- true
   | _ -> ())
  end

(** Disable every profile-guided optimization except region formation and
    partial inlining — the paper's "All PGO" experiment (§6.3). *)
let disable_all_pgo (t : t) =
  t.guard_relax <- false;
  t.method_dispatch <- false;
  t.pgo_layout <- false;
  t.function_sort <- false

let lower_options (t : t) : Hhir.Lower.options =
  { Hhir.Lower.o_inline = t.inlining;
    o_method_dispatch = t.method_dispatch;
    o_inline_cache = t.inline_cache;
    o_max_inline_instrs = t.max_inline_instrs;
    o_rce = t.rce;
    o_load_elim = t.load_elim;
    o_store_elim = t.store_elim;
    o_gvn = t.gvn;
    o_simplify = t.simplify;
    o_relax = t.guard_relax }
