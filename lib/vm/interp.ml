(** The HHBC interpreter (paper §2.4).

    A straightforward dispatch loop with precise reference counting: stack
    slots and locals own references; every transfer is explicit.  The
    interpreter is also the JIT's fallback execution engine: compiled code
    side-exits here via OSR, and the interpreter re-enters compiled code at
    jump targets through {!translation_hook}.

    Execution charges the cycle ledger per bytecode (see {!Cost}), modeling
    a threaded interpreter's dispatch + handler costs. *)

open Runtime.Value
open Hhbc.Instr

exception Php_exception of value

type iter_state = {
  mutable it_arr : arr counted option;   (* owns a reference while active *)
  mutable it_pos : int;
}

type frame = {
  func : Hhbc.Instr.func;
  unit_ : Hhbc.Hunit.t;
  locals : value array;
  stack : value array;
  mutable sp : int;                      (* next free slot *)
  mutable this_ : value;                 (* VObj or VNull; owned *)
  iters : iter_state array;
  (* Threaded-dispatch activation state.  Folding these into the frame
     (instead of a separate per-activation record plus ref cells) makes
     an interpreted activation allocate nothing beyond the frame itself.
     [acct] is the executing domain's ledger account, bound once: by
     the engine from its machine when it first tries compiled code for
     the frame, else by [acct_of] when [run] enters; [cyc_]/[icnt_]
     accrue cycles and retired instructions between flushes; [ret_]
     receives the result when a handler returns the -1 sentinel. *)
  mutable acct : Runtime.Ledger.acct;
  mutable pc_ : int;
  mutable ret_ : value;
  mutable cyc_ : int;
  mutable icnt_ : int;
}

(* Placeholder account for freshly built frames: never charged — a
   frame is bound to its domain's real account before anything counts
   through it ([acct_of]). *)
let no_acct : Runtime.Ledger.acct = Runtime.Ledger.fresh ()

(* Placeholder profiler state for a probed activation with the profiler
   off: never charged.  Fetching the domain's real state costs a
   domain-local lookup per call, which call-heavy code pays visibly. *)
let no_prof : Obs.Profiler.state = Obs.Profiler.fresh ()

(** Result of attempting to enter compiled code at a (frame, pc) point. *)
type enter_result =
  | NoTranslation
  | Resumed of int      (** machine code ran and side-exited to this pc *)
  | Returned of value   (** machine code ran the function to completion *)

(** Installed by the JIT engine: called at function entry and at jump
    targets to transfer control into compiled code.  [hook_active] is
    false whenever the installed hook is the constant [NoTranslation]
    (interp-only engines, no engine at all): taken jumps then skip the
    deref-and-call entirely.  The hook has no observable effect in that
    configuration, so skipping it changes nothing. *)
let translation_hook : (frame -> int -> enter_result) ref =
  ref (fun _ _ -> NoTranslation)

let hook_active : bool ref = ref false

(** Instructions retired by interpreted execution only; used by Figure
    9's "time in live vs optimized code" statistic.  Reset at engine
    install (it feeds the [interp.instrs] vmstats gauge per run).  The
    count is a field of the domain's ledger account, so request-serving
    workers count on their own and the scheduler's {!Runtime.Ledger.absorb}
    folds the counts back at join. *)
let instr_count () : int = (Runtime.Ledger.acct ()).a_instrs
let reset_instr_count () = (Runtime.Ledger.acct ()).a_instrs <- 0

(* Serializes flattening: serving domains may take a first call to the
   same function concurrently.  Build paths only — never taken on the
   dispatch hot path once a function is flattened. *)
let flat_mutex = Mutex.create ()

(* Per-opcode execution counters ([interp.op.<Name>]): the vmstats index
   of each opcode's counter, by dense opcode id.  All are registered
   here, at module init, so the counter array a dispatch loop holds
   always has a slot for every one of them. *)
let op_counters : int array =
  Array.map
    (fun n -> (Obs.Vmstats.counter ("interp.op." ^ n)).Obs.Vmstats.c_idx)
    Hhbc.Instr.opcode_names

(* Register opcode names with the cycle-attribution profiler once, so
   per-opcode interp attribution renders symbolically (obs cannot depend
   on hhbc). *)
let () = Obs.Profiler.set_op_names Hhbc.Instr.opcode_names

(* Method-dispatch cache telemetry (the interpreter side of the PR 1
   per-call-site caches). *)
let c_meth_hit = Obs.Vmstats.counter "interp.meth_cache.hit"
let c_meth_miss = Obs.Vmstats.counter "interp.meth_cache.miss"

(* Forward declaration to break the call cycle: calling a function goes
   through the engine (which may run compiled code).  Default: interpret. *)
let call_dispatch :
  (Hhbc.Hunit.t -> int -> value array -> value -> value) ref =
  ref (fun _ _ _ _ -> assert false)

(** Pop the top [n] stack values as an argument vector (ownership moves).
    One- and two-argument calls — nearly every call — build the vector
    with an inline allocation instead of the [Array.sub] C call. *)
let take_args (fr : frame) (n : int) : value array =
  if n = 1 then begin
    let sp = fr.sp - 1 in
    let a = fr.stack.(sp) in
    fr.stack.(sp) <- VUninit;
    fr.sp <- sp;
    [| a |]
  end
  else if n = 2 then begin
    let sp = fr.sp - 2 in
    let a = fr.stack.(sp) and b = fr.stack.(sp + 1) in
    fr.stack.(sp) <- VUninit;
    fr.stack.(sp + 1) <- VUninit;
    fr.sp <- sp;
    [| a; b |]
  end
  else if n = 0 then [||]
  else begin
    let base = fr.sp - n in
    let args = Array.sub fr.stack base n in
    Array.fill fr.stack base n VUninit;
    fr.sp <- base;
    args
  end

let push (fr : frame) (v : value) =
  fr.stack.(fr.sp) <- v;
  fr.sp <- fr.sp + 1

let pop (fr : frame) : value =
  fr.sp <- fr.sp - 1;
  let v = fr.stack.(fr.sp) in
  fr.stack.(fr.sp) <- VUninit;
  v

let top (fr : frame) : value = fr.stack.(fr.sp - 1)

(* A constructor test, not [v = VUninit]: the latter is polymorphic
   equality (an out-of-line C call) on this mixed variant. *)
let is_uninit (v : value) = match v with VUninit -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Frame setup and teardown                                            *)
(* ------------------------------------------------------------------ *)

let max_stack = 128

(** Evaluation-stack slots to allocate for a frame of [f]: the emit-time
    static bound plus a small margin (the JIT's inline-exit materializer
    writes at bytecode depths, which the same bound covers), capped at
    the historical worst case.  Sizing frames to the function — instead
    of 128 slots each — is a large share of the interpreter's activation
    cost for small functions. *)
let frame_stack_size (f : func) : int =
  let d = f.fn_stack_max + 4 in
  if d < 1 then 1 else if d > max_stack then max_stack else d

let check_hint (f : func) (p : param_info) (v : value) =
  match p.pi_hint with
  | None -> ()
  | Some h ->
    let t = Hhbc.Rtype.of_hint h in
    if not (Hhbc.Rtype.value_matches t v) then
      fatal "argument $%s of %s expects %s, %s given"
        p.pi_name f.fn_name (Mphp.Ast.hint_name h)
        (tag_name (tag_of_value v))

(** Build a frame: [args] ownership transfers to the frame's locals.
    Missing arguments are filled from defaults; hints are checked (§2.1). *)
let make_frame (u : Hhbc.Hunit.t) (f : func) (args : value array) (this_ : value) : frame =
  let nargs = Array.length args in
  let nparams = Array.length f.fn_params in
  if nargs > nparams then
    fatal "%s expects at most %d arguments, %d given" f.fn_name nparams nargs;
  let locals = Array.make (max f.fn_num_locals 1) VUninit in
  (* Fast path for the overwhelmingly common shape — every parameter
     supplied and none hinted — where binding degenerates to a blit.
     The slow path below is the semantics of record. *)
  if nargs = nparams && f.fn_params_unhinted then
    Array.blit args 0 locals 0 nargs
  else
    Array.iteri
      (fun i p ->
         if i < nargs then begin
           check_hint f p args.(i);
           locals.(i) <- args.(i)
         end else
           match p.pi_default with
           | Some c -> locals.(i) <- Hhbc.Hunit.materialize c
           | None -> fatal "%s: missing argument $%s" f.fn_name p.pi_name)
      f.fn_params;
  { func = f; unit_ = u; locals;
    stack = Array.make (frame_stack_size f) VUninit; sp = 0;
    this_;
    iters =
      (if f.fn_num_iters = 0 then [||]
       else Array.init f.fn_num_iters (fun _ -> { it_arr = None; it_pos = 0 }));
    acct = no_acct; pc_ = 0; ret_ = VUninit; cyc_ = 0; icnt_ = 0 }

let free_iter (it : iter_state) =
  match it.it_arr with
  | Some node ->
    Runtime.Heap.decref (VArr node);
    it.it_arr <- None
  | None -> ()

(** The frame's ledger account, bound on first need.  A frame never
    leaves the domain that built it, so once bound its account stays
    the domain's.  Frames the engine never saw (an inline exit's
    materialized callee, a direct [call_interpreted]) start unbound. *)
let acct_of (fr : frame) : Runtime.Ledger.acct =
  if fr.acct == no_acct then fr.acct <- Runtime.Ledger.acct ();
  fr.acct

(** Release everything a frame owns (locals, stack, $this, iterators). *)
let teardown (fr : frame) =
  let a = acct_of fr in
  let locals = fr.locals in
  for i = 0 to Array.length locals - 1 do
    Runtime.Heap.decref_on a locals.(i);
    locals.(i) <- VUninit
  done;
  for i = 0 to fr.sp - 1 do
    Runtime.Heap.decref_on a fr.stack.(i);
    fr.stack.(i) <- VUninit
  done;
  fr.sp <- 0;
  Runtime.Heap.decref_on a fr.this_;
  fr.this_ <- VNull;
  if Array.length fr.iters > 0 then Array.iter free_iter fr.iters

(* ------------------------------------------------------------------ *)
(* Object construction and method dispatch                             *)
(* ------------------------------------------------------------------ *)

(** A class's construction template, built once per unit load
    ({!Loader.load}, right after class registration) and immutable
    after: a new object copies [t_props], then replays [t_fresh] — each
    step releases the slot's value and stores a fresh materialization of
    the default — then runs the constructor.  The steps are the array
    defaults, which every object must own afresh, and any default that
    replaces an earlier array default of a redeclared property, so every
    allocation, free and refcount operation of the by-name path it
    replaced happens as before, in the same order. *)
type template = {
  t_cls : int;
  t_props : value array;                        (* uncounted defaults *)
  t_fresh : (int * Hhbc.Instr.cval) array;      (* (slot, default) steps *)
  t_ctor : int;                                 (* constructor fid; -1: none *)
}

(* By class id; rebuilt for every class a load registers. *)
let templates : template array ref = ref [||]

(** Build [c]'s template from the defaults the unit declares for it and
    its ancestors (root first; a later default for a name replaces an
    earlier one).  An ancestor the unit does not declare ends the walk. *)
let build_template (u : Hhbc.Hunit.t) (c : Runtime.Vclass.t) : template =
  let props = Array.make (Runtime.Vclass.num_props c) VNull in
  let holds_arr = Array.make (Array.length props) false in
  let fresh = ref [] in
  let rec walk (cname : string) =
    match
      List.find_opt (fun ci -> ci.Hhbc.Hunit.ci_name = cname) u.Hhbc.Hunit.classes
    with
    | None -> ()
    | Some ci ->
      Option.iter walk ci.ci_parent;
      List.iter
        (fun (pname, cv) ->
           let slot = Runtime.Vclass.slot_of_name c pname in
           if slot >= 0 then
             match cv with
             | CArr _ ->
               props.(slot) <- VNull;
               holds_arr.(slot) <- true;
               fresh := (slot, cv) :: !fresh
             | _ ->
               props.(slot) <- Hhbc.Hunit.materialize cv;
               if holds_arr.(slot) then begin
                 holds_arr.(slot) <- false;
                 fresh := (slot, cv) :: !fresh
               end)
        ci.ci_props
  in
  walk c.c_name;
  { t_cls = c.c_id; t_props = props; t_fresh = Array.of_list (List.rev !fresh);
    t_ctor = Option.value c.c_ctor ~default:(-1) }

(** Construct an object from template [t]: [args] go to the constructor,
    or are released if the class has none. *)
let construct (u : Hhbc.Hunit.t) (t : template) (args : value array) : value =
  let props = Array.copy t.t_props in
  let obj = Runtime.Heap.new_obj t.t_cls props in
  for i = 0 to Array.length t.t_fresh - 1 do
    let slot, cv = t.t_fresh.(i) in
    Runtime.Heap.decref props.(slot);
    props.(slot) <- Hhbc.Hunit.materialize cv
  done;
  if t.t_ctor >= 0 then begin
    Runtime.Heap.incref obj;  (* constructor's $this reference *)
    (try
       let r = !call_dispatch u t.t_ctor args obj in
       Runtime.Heap.decref r
     with e ->
       (* constructor threw: release the half-built object *)
       Runtime.Heap.decref obj;
       raise e)
  end else
    (* no ctor: args are still owned by us; release them *)
    Array.iter Runtime.Heap.decref args;
  obj

(** Resolve a construction site of class [cname] once: the returned
    function builds an object from its template.  An unknown class is a
    fatal error when the site runs. *)
let constructor_for (cname : string) : Hhbc.Hunit.t -> value array -> value =
  match Runtime.Vclass.find_opt cname with
  | Some c ->
    let t = !templates.(c.c_id) in
    fun u args -> construct u t args
  | None -> fun _ _ -> fatal "class %s not found" cname

(** The fatal error of an access to a property [o]'s class lacks. *)
let undefined_prop (o : obj counted) (p : string) =
  fatal "undefined property %s::$%s" (Runtime.Vclass.get o.data.cls).c_name p

let lookup_method_for (v : value) (mname : string) : Runtime.Vclass.meth =
  match v with
  | VObj o ->
    let c = Runtime.Vclass.get o.data.cls in
    (match Runtime.Vclass.lookup_method c mname with
     | Some m -> m
     | None -> fatal "call to undefined method %s::%s" c.c_name mname)
  | _ -> fatal "method call %s() on non-object %s" mname (tag_name (tag_of_value v))

(* ------------------------------------------------------------------ *)
(* Per-call-site method-dispatch caches                                 *)
(* ------------------------------------------------------------------ *)

(* Monomorphic inline caches for [FCallM], keyed by (function id, call pc)
   and validated on the receiver's class id.  Class method tables are
   immutable once registered, so a hit is always identical to a full
   lookup; the table is cleared whenever the class table is rebuilt
   (Loader.load) or a JIT engine is (re)installed. *)

type meth_site_cache = {
  mutable sc_cls : int;                       (* receiver class id; -1 = empty *)
  mutable sc_meth : Runtime.Vclass.meth option;
}

(* fid -> pc -> cache; rows allocated lazily per function.  One table per
   domain (domain-local storage): the cache entries are mutable, so
   request-serving domains must not share them — each domain warms its own
   table, which is also what a per-thread cache would do in a real VM. *)
let meth_site_caches_key : meth_site_cache array array ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [||])

(** Engine policy switch: also covers the JIT-side dispatch caches. *)
let dispatch_caches_enabled = ref true

let reset_meth_site_caches () = Domain.DLS.get meth_site_caches_key := [||]

let meth_site_cache (fid : int) (pc : int) ~(body_len : int) : meth_site_cache =
  let cell = Domain.DLS.get meth_site_caches_key in
  let tbl = !cell in
  let tbl =
    if fid < Array.length tbl then tbl
    else begin
      let bigger = Array.make (max (fid + 1) (2 * Array.length tbl + 8)) [||] in
      Array.blit tbl 0 bigger 0 (Array.length tbl);
      cell := bigger;
      bigger
    end
  in
  let row =
    if Array.length tbl.(fid) > 0 then tbl.(fid)
    else begin
      let r =
        Array.init (max body_len 1) (fun _ -> { sc_cls = -1; sc_meth = None })
      in
      tbl.(fid) <- r;
      r
    end
  in
  row.(pc)

(* ------------------------------------------------------------------ *)
(* The dispatch loop                                                   *)
(* ------------------------------------------------------------------ *)

(** Find the innermost exception handler covering [pc] whose class matches
    the exception value. *)
let find_handler (fr : frame) (pc : int) (exn_v : value) : ex_entry option =
  List.find_opt
    (fun e ->
       pc >= e.ex_start && pc < e.ex_end
       && (match exn_v with
           | VObj o ->
             Runtime.Vclass.instanceof (Runtime.Vclass.get o.data.cls) e.ex_class
           | _ -> e.ex_class = "Exception"))
    fr.func.fn_ex_table

(* ------------------------------------------------------------------ *)
(* Flattened code: pre-resolved operands, closure-threaded dispatch    *)
(* ------------------------------------------------------------------ *)

(* The interpreter's raw-speed path (OCamlJIT-style, arXiv:1011.1783):
   each function body is lowered once into a contiguous array of
   pre-bound handler closures.  Operand local/iterator indices, constant
   values, interned strings, direct-call targets, per-op costs and
   counter handles are all resolved at flatten time; the dispatch loop
   is `pc := code.(pc) st` with handlers returning the next pc.  Flat
   pcs are bytecode pcs (the lowering is 1:1), so profiling counters,
   method-cache keys, exception tables and OSR entry points are shared
   unchanged with the JIT. *)

(** A pre-bound instruction handler: runs one bytecode against the
    activation state (carried on the frame) and returns the next flat
    pc, or -1 after stashing the function's result in [ret_].  Handlers
    are built once per function and shared across domains, so anything
    domain-local (the ledger account) or activation-local (the return
    slot) must arrive through the frame rather than be captured in the
    closure. *)
type handler = frame -> int

type flat = {
  fl_epoch : int;                    (* stale if <> !flat_epoch *)
  fl_code : handler array;           (* 1:1 with fn_body *)
  fl_cost : int array;               (* pre-resolved Cost.instr_cost *)
  fl_opid : int array;               (* dense opcode ids, per pc *)
  fl_ctrs : int array;               (* per-pc [interp.op.*] counter index *)
}

type Hhbc.Instr.flat_cache += Flat of flat

(* Unit-reload invalidation: class ids, function tables and resolved
   direct-call targets all restart with a new unit, so a reload makes
   every cached flat stale at once.  Bumped by [Loader.load]; in-place
   bytecode rewrites (hhbbc passes) instead reset the per-function slot
   via [Hhbc.Instr.invalidate_flat]. *)
let flat_epoch = ref 0
let bump_flat_epoch () = incr flat_epoch

let c_flatten = Obs.Vmstats.counter "interp.flatten"

(** Taken-jump handler: consult the JIT for a translation at the target
    (where interpreted execution re-enters compiled code). *)
let do_jump (fr : frame) (target : int) : int =
  if not !hook_active then target
  else
    match !translation_hook fr target with
    | NoTranslation -> target
    | Resumed pc' -> pc'
    | Returned v -> fr.ret_ <- v; -1

(** Lower one instruction at [pc] of [f] into its pre-bound handler, with
    operands captured at flatten time.  Each handler opens by accruing
    its own cost-model charge [c] — captured here as an immediate, so the
    dispatch loop carries no per-op cost lookup; the charge lands before
    the op's effects (a handler that raises has already accrued, and the
    flush on the unwind path commits it).  The semantics, refcount
    transfers and cycle charges are pinned by test/test_threaded.ml. *)
let mk_handler (f : func) (pc : int) (i : Hhbc.Instr.t) : handler =
  let next = pc + 1 in
  let c = Cost.instr_cost i in
  match i with
  | Int n -> let v = VInt n in fun fr -> fr.cyc_ <- fr.cyc_ + c; push fr v; next
  | Dbl d -> let v = VDbl d in fun fr -> fr.cyc_ <- fr.cyc_ + c; push fr v; next
  | String s ->
    (* interned once here instead of per execution; a miss under a frozen
       pool yields an unregistered static string, which is value-equal *)
    let v = Hhbc.Hunit.intern s in
    fun fr -> fr.cyc_ <- fr.cyc_ + c; push fr v; next
  | True -> fun fr -> fr.cyc_ <- fr.cyc_ + c; push fr (VBool true); next
  | False -> fun fr -> fr.cyc_ <- fr.cyc_ + c; push fr (VBool false); next
  | Null -> fun fr -> fr.cyc_ <- fr.cyc_ + c; push fr VNull; next
  | NewArray ->
    fun fr -> fr.cyc_ <- fr.cyc_ + c;
      push fr (Runtime.Heap.new_arr_on fr.acct); next
  | AddNewElemC ->
    fun fr -> fr.cyc_ <- fr.cyc_ + c;
      let v = pop fr in
      (match top fr with
       | VArr node ->
         let node' = Runtime.Varray.append node v in
         fr.stack.(fr.sp - 1) <- VArr node';
         next
       | _ -> fatal "AddNewElemC on non-array")
  | AddElemC ->
    fun fr -> fr.cyc_ <- fr.cyc_ + c;
      let v = pop fr in
      let k = pop fr in
      (match top fr with
       | VArr node ->
         let node' =
           Runtime.Varray.set node (Runtime.Varray.key_of_value k) v
         in
         fr.stack.(fr.sp - 1) <- VArr node';
         Runtime.Heap.decref_on fr.acct k;
         next
       | _ -> fatal "AddElemC on non-array")
  | CGetL l ->
    fun fr -> fr.cyc_ <- fr.cyc_ + c;
      let v = fr.locals.(l) in
      if is_uninit v then
        fatal "undefined variable $%s" (Hhbc.Disasm.local_name f l);
      Runtime.Heap.incref_on fr.acct v;
      push fr v;
      next
  | PushL l ->
    fun fr -> fr.cyc_ <- fr.cyc_ + c;
      let v = fr.locals.(l) in
      if is_uninit v then fatal "PushL of uninit local";
      fr.locals.(l) <- VUninit;
      push fr v;
      next
  | SetL l ->
    fun fr -> fr.cyc_ <- fr.cyc_ + c;
      let v = top fr in
      Runtime.Heap.incref_on fr.acct v;
      let old = fr.locals.(l) in
      fr.locals.(l) <- v;
      (* store before releasing: a destructor running here sees the
         local already rebound (same order as compiled code) *)
      Runtime.Heap.decref_on fr.acct old;
      next
  | PopC ->
    fun fr -> fr.cyc_ <- fr.cyc_ + c;
      Runtime.Heap.decref_on fr.acct (pop fr); next
  | Dup ->
    fun fr -> fr.cyc_ <- fr.cyc_ + c;
      let v = top fr in
      Runtime.Heap.incref_on fr.acct v;
      push fr v;
      next
  | IncDecL (l, op) ->
    fun fr -> fr.cyc_ <- fr.cyc_ + c;
      let old = fr.locals.(l) in
      let old = if is_uninit old then VNull else old in
      let nv, result = Runtime.Ops.incdec op old in
      fr.locals.(l) <- nv;
      push fr result;
      next
  | IssetL l ->
    fun fr -> fr.cyc_ <- fr.cyc_ + c;
      push fr
        (VBool
           (match fr.locals.(l) with VUninit | VNull -> false | _ -> true));
      next
  | UnsetL l ->
    fun fr -> fr.cyc_ <- fr.cyc_ + c;
      let old = fr.locals.(l) in
      fr.locals.(l) <- VUninit;
      Runtime.Heap.decref_on fr.acct old;
      next
  | Binop op ->
    let bf = Runtime.Ops.binop_fn op in
    fun fr -> fr.cyc_ <- fr.cyc_ + c;
      let b = pop fr in
      let a = pop fr in
      (* bf returns an owned value (never one of its operands) *)
      let r = bf a b in
      Runtime.Heap.decref_on fr.acct a;
      Runtime.Heap.decref_on fr.acct b;
      push fr r;
      next
  | Unop op ->
    let uf = Runtime.Ops.unop_fn op in
    fun fr -> fr.cyc_ <- fr.cyc_ + c;
      let v = pop fr in
      push fr (uf v);
      Runtime.Heap.decref_on fr.acct v;
      next
  | InstanceOf cname ->
    fun fr -> fr.cyc_ <- fr.cyc_ + c;
      let v = pop fr in
      let r =
        match v with
        | VObj o ->
          Runtime.Vclass.instanceof (Runtime.Vclass.get o.data.cls) cname
        | _ -> false
      in
      push fr (VBool r);
      Runtime.Heap.decref_on fr.acct v;
      next
  | Jmp t -> fun fr -> fr.cyc_ <- fr.cyc_ + c; do_jump fr t
  | JmpZ t ->
    fun fr -> fr.cyc_ <- fr.cyc_ + c;
      let v = pop fr in
      let z = not (truthy v) in
      Runtime.Heap.decref_on fr.acct v;
      if z then do_jump fr t else next
  | JmpNZ t ->
    fun fr -> fr.cyc_ <- fr.cyc_ + c;
      let v = pop fr in
      let nz = truthy v in
      Runtime.Heap.decref_on fr.acct v;
      if nz then do_jump fr t else next
  | RetC ->
    fun fr -> fr.cyc_ <- fr.cyc_ + c;
      let v = pop fr in
      teardown fr;
      fr.ret_ <- v;
      -1
  | Throw ->
    fun fr -> fr.cyc_ <- fr.cyc_ + c; raise (Php_exception (pop fr))
  | FCall (fid, nargs) ->
    fun fr -> fr.cyc_ <- fr.cyc_ + c;
      let args = take_args fr nargs in
      push fr (!call_dispatch fr.unit_ fid args VNull);
      next
  | FCallBuiltin (name, nargs) ->
    fun fr -> fr.cyc_ <- fr.cyc_ + c;
      let args = take_args fr nargs in
      Runtime.Ledger.charge_interp_on fr.acct (Builtins.cost name args);
      let r = Builtins.call name args in
      for j = 0 to Array.length args - 1 do
        Runtime.Heap.decref_on fr.acct args.(j)
      done;
      push fr r;
      next
  | FCallM (mname, nargs) ->
    let fid = f.fn_id and body_len = Array.length f.fn_body in
    fun fr -> fr.cyc_ <- fr.cyc_ + c;
      let args = take_args fr nargs in
      let recv = pop fr in
      let m =
        match recv with
        | VObj o when !dispatch_caches_enabled ->
          let sc = meth_site_cache fid pc ~body_len in
          (match sc.sc_meth with
           | Some m when sc.sc_cls = o.data.cls ->
             Obs.Vmstats.bump c_meth_hit;
             m
           | _ ->
             Obs.Vmstats.bump c_meth_miss;
             let m = lookup_method_for recv mname in
             sc.sc_cls <- o.data.cls;
             sc.sc_meth <- Some m;
             m)
        | _ -> lookup_method_for recv mname
      in
      push fr (!call_dispatch fr.unit_ m.m_func args recv);
      next
  | NewObjD (cname, nargs) ->
    let ctor = constructor_for cname in
    fun fr -> fr.cyc_ <- fr.cyc_ + c;
      let args = take_args fr nargs in
      push fr (ctor fr.unit_ args);
      next
  | This ->
    fun fr -> fr.cyc_ <- fr.cyc_ + c;
      (match fr.this_ with
       | VObj _ as t -> Runtime.Heap.incref_on fr.acct t; push fr t; next
       | _ -> fatal "using $this outside of a method")
  | QueryM_Elem ->
    fun fr -> fr.cyc_ <- fr.cyc_ + c;
      let k = pop fr in
      let base = pop fr in
      (match base with
       | VArr a ->
         let v = Runtime.Varray.get a.data (Runtime.Varray.key_of_value k) in
         Runtime.Heap.incref_on fr.acct v;
         push fr v;
         Runtime.Heap.decref_on fr.acct base;
         Runtime.Heap.decref_on fr.acct k;
         next
       | _ -> fatal "cannot index %s" (tag_name (tag_of_value base)))
  | QueryM_Prop p ->
    let site = Runtime.Vclass.prop_site p in
    fun fr -> fr.cyc_ <- fr.cyc_ + c;
      let base = pop fr in
      (match base with
       | VObj o ->
         let slot = Runtime.Vclass.site_slot site o.data.cls in
         if slot >= 0 then begin
           let v = o.data.props.(slot) in
           Runtime.Heap.incref_on fr.acct v;
           push fr v;
           Runtime.Heap.decref_on fr.acct base;
           next
         end else undefined_prop o p
       | _ -> fatal "property access on %s" (tag_name (tag_of_value base)))
  | SetM_ElemL l ->
    fun fr -> fr.cyc_ <- fr.cyc_ + c;
      let v = pop fr in
      let k = pop fr in
      (match fr.locals.(l) with
       | VArr node ->
         Runtime.Heap.incref_on fr.acct v;   (* the array's reference *)
         let node' =
           Runtime.Varray.set node (Runtime.Varray.key_of_value k) v
         in
         fr.locals.(l) <- VArr node';
         Runtime.Heap.decref_on fr.acct k;
         push fr v;               (* expression result keeps our ref *)
         next
       | VUninit ->
         (* auto-vivification: $a[k] = v on unset local creates an array *)
         let node = Runtime.Heap.new_arr_node () in
         Runtime.Heap.incref_on fr.acct v;
         let node' =
           Runtime.Varray.set node (Runtime.Varray.key_of_value k) v
         in
         fr.locals.(l) <- VArr node';
         Runtime.Heap.decref_on fr.acct k;
         push fr v;
         next
       | _ ->
         fatal "cannot use %s as array" (tag_name (tag_of_value fr.locals.(l))))
  | SetM_NewElemL l ->
    fun fr -> fr.cyc_ <- fr.cyc_ + c;
      let v = pop fr in
      (match fr.locals.(l) with
       | VArr node ->
         Runtime.Heap.incref_on fr.acct v;
         let node' = Runtime.Varray.append node v in
         fr.locals.(l) <- VArr node';
         push fr v;
         next
       | VUninit ->
         let node = Runtime.Heap.new_arr_node () in
         Runtime.Heap.incref_on fr.acct v;
         let node' = Runtime.Varray.append node v in
         fr.locals.(l) <- VArr node';
         push fr v;
         next
       | _ ->
         fatal "cannot append to %s" (tag_name (tag_of_value fr.locals.(l))))
  | UnsetM_ElemL l ->
    fun fr -> fr.cyc_ <- fr.cyc_ + c;
      let k = pop fr in
      (match fr.locals.(l) with
       | VArr node ->
         let node' =
           Runtime.Varray.unset node (Runtime.Varray.key_of_value k)
         in
         fr.locals.(l) <- VArr node';
         Runtime.Heap.decref_on fr.acct k;
         next
       | VUninit -> Runtime.Heap.decref_on fr.acct k; next
       | _ -> fatal "cannot unset element of non-array")
  | SetM_Prop p ->
    let site = Runtime.Vclass.prop_site p in
    fun fr -> fr.cyc_ <- fr.cyc_ + c;
      let v = pop fr in
      let base = pop fr in
      (match base with
       | VObj o ->
         let slot = Runtime.Vclass.site_slot site o.data.cls in
         if slot >= 0 then begin
           Runtime.Heap.incref_on fr.acct v;
           Runtime.Heap.decref_on fr.acct o.data.props.(slot);
           o.data.props.(slot) <- v;
           Runtime.Heap.decref_on fr.acct base;
           push fr v;
           next
         end else undefined_prop o p
       | _ -> fatal "property write on %s" (tag_name (tag_of_value base)))
  | IncDecM_Prop (p, op) ->
    let site = Runtime.Vclass.prop_site p in
    fun fr -> fr.cyc_ <- fr.cyc_ + c;
      let base = pop fr in
      (match base with
       | VObj o ->
         let slot = Runtime.Vclass.site_slot site o.data.cls in
         if slot >= 0 then begin
           let old = o.data.props.(slot) in
           let nv, result = Runtime.Ops.incdec op old in
           o.data.props.(slot) <- nv;
           push fr result;
           Runtime.Heap.decref_on fr.acct base;
           next
         end else undefined_prop o p
       | _ -> fatal "property incdec on %s" (tag_name (tag_of_value base)))
  | IssetM_Elem ->
    fun fr -> fr.cyc_ <- fr.cyc_ + c;
      let k = pop fr in
      let base = pop fr in
      (match base with
       | VArr a ->
         let r =
           match
             Runtime.Varray.find_opt a.data (Runtime.Varray.key_of_value k)
           with
           | Some VNull | None -> false
           | Some _ -> true
         in
         push fr (VBool r);
         Runtime.Heap.decref_on fr.acct base;
         Runtime.Heap.decref_on fr.acct k;
         next
       | _ ->
         push fr (VBool false);
         Runtime.Heap.decref_on fr.acct base;
         Runtime.Heap.decref_on fr.acct k;
         next)
  | IssetM_Prop p ->
    let site = Runtime.Vclass.prop_site p in
    fun fr -> fr.cyc_ <- fr.cyc_ + c;
      let base = pop fr in
      (match base with
       | VObj o ->
         let slot = Runtime.Vclass.site_slot site o.data.cls in
         let r =
           slot >= 0
           && (match o.data.props.(slot) with
               | VNull | VUninit -> false
               | _ -> true)
         in
         push fr (VBool r);
         Runtime.Heap.decref_on fr.acct base;
         next
       | _ ->
         push fr (VBool false);
         Runtime.Heap.decref_on fr.acct base;
         next)
  | Print ->
    fun fr -> fr.cyc_ <- fr.cyc_ + c;
      let v = pop fr in
      Output.write (to_string_val v);
      Runtime.Heap.decref_on fr.acct v;
      next
  | IterInit (id, done_t) ->
    fun fr -> fr.cyc_ <- fr.cyc_ + c;
      let v = pop fr in
      (match v with
       | VArr node ->
         if node.data.count = 0 then begin
           Runtime.Heap.decref_on fr.acct v;
           (* no translation-hook consult here: the done-target is not
              an OSR entry point *)
           done_t
         end
         else begin
           let it = fr.iters.(id) in
           it.it_arr <- Some node;  (* transfer our reference *)
           it.it_pos <- 0;
           next
         end
       | _ -> fatal "foreach over non-array %s" (tag_name (tag_of_value v)))
  | IterKV (id, kloc, vloc) ->
    (* key/value split resolved at flatten time: the no-key form pays no
       option test per iteration *)
    (match kloc with
     | None ->
       fun fr -> fr.cyc_ <- fr.cyc_ + c;
         let it = fr.iters.(id) in
         (match it.it_arr with
          | Some node ->
            let _, v = node.data.entries.(it.it_pos) in
            Runtime.Heap.incref_on fr.acct v;
            let old = fr.locals.(vloc) in
            fr.locals.(vloc) <- v;
            Runtime.Heap.decref_on fr.acct old;
            next
          | None -> fatal "IterKV on dead iterator")
     | Some kl ->
       fun fr -> fr.cyc_ <- fr.cyc_ + c;
         let it = fr.iters.(id) in
         (match it.it_arr with
          | Some node ->
            let k, v = node.data.entries.(it.it_pos) in
            let kv =
              match k with
              | Runtime.Value.KInt i -> VInt i
              | Runtime.Value.KStr s -> Hhbc.Hunit.intern s
            in
            let old = fr.locals.(kl) in
            fr.locals.(kl) <- kv;
            Runtime.Heap.decref_on fr.acct old;
            Runtime.Heap.incref_on fr.acct v;
            let old = fr.locals.(vloc) in
            fr.locals.(vloc) <- v;
            Runtime.Heap.decref_on fr.acct old;
            next
          | None -> fatal "IterKV on dead iterator"))
  | IterNext (id, loop_t) ->
    fun fr -> fr.cyc_ <- fr.cyc_ + c;
      let it = fr.iters.(id) in
      (match it.it_arr with
       | Some node ->
         it.it_pos <- it.it_pos + 1;
         if it.it_pos < node.data.count then do_jump fr loop_t
         else begin free_iter it; next end
       | None -> fatal "IterNext on dead iterator")
  | IterFree id ->
    fun fr -> fr.cyc_ <- fr.cyc_ + c; free_iter fr.iters.(id); next
  | AssertRATL _ | AssertRATStk _ | Nop -> fun fr -> fr.cyc_ <- fr.cyc_ + c; next

(** Lower a whole function body.  Flat pc = bytecode pc throughout. *)
let flatten (f : func) : flat =
  Obs.Vmstats.bump c_flatten;
  let body = f.fn_body in
  let n = Array.length body in
  let dummy : handler = fun _ -> assert false in
  let code = Array.make (max n 1) dummy in
  let opid = Array.map Hhbc.Instr.opcode_id body in
  for pc = 0 to n - 1 do
    code.(pc) <- mk_handler f pc body.(pc)
  done;
  { fl_epoch = !flat_epoch;
    fl_code = code;
    fl_cost = Cost.costs_of_body body;
    fl_opid = opid;
    fl_ctrs = Array.map (fun op -> op_counters.(op)) opid }

(** The function's flat form, building and caching it on first use.
    Serving domains can race to a first call: the build is serialized
    and idempotent (the fast path is a single field read + epoch check). *)
let flat_of (f : func) : flat =
  match f.fn_flat with
  | Flat fl when fl.fl_epoch = !flat_epoch -> fl
  | _ ->
    Mutex.lock flat_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock flat_mutex)
      (fun () ->
         match f.fn_flat with
         | Flat fl when fl.fl_epoch = !flat_epoch -> fl
         | _ ->
           let fl = flatten f in
           f.fn_flat <- Flat fl;
           fl)

(** Flatten every function of a unit eagerly (engine install): serving
    workers then never contend on the flatten mutex mid-burst, and
    first-request latency excludes lowering time. *)
let preflatten (u : Hhbc.Hunit.t) : unit =
  Array.iter (fun f -> ignore (flat_of f)) u.Hhbc.Hunit.functions

(** Exception unwind shared by the threaded loop variants: either resets
    [fr.pc_] to the matching handler (clearing the eval stack and
    binding the exception local) or tears the frame down and re-raises.
    On entry [fr.pc_] is still the faulting pc — handlers only advance
    it by returning normally. *)
let unwind_to_handler (fr : frame) (exn_v : value) : unit =
  match find_handler fr fr.pc_ exn_v with
  | Some e ->
    (* clear the eval stack: mid-expression temporaries die here *)
    for j = 0 to fr.sp - 1 do
      Runtime.Heap.decref_on fr.acct fr.stack.(j);
      fr.stack.(j) <- VUninit
    done;
    fr.sp <- 0;
    Runtime.Heap.decref_on fr.acct fr.locals.(e.ex_local);
    fr.locals.(e.ex_local) <- exn_v;   (* transfer *)
    fr.pc_ <- e.ex_handler
  | None ->
    teardown fr;
    raise (Php_exception exn_v)

(* Cycles and retired instructions accumulate in activation-local frame
   fields and flush to the per-domain ledger when the activation ends
   (return, OSR-out, or an escaping exception).  Every external reader —
   request boundaries, serving spans, the translation-span deltas taken
   mid-activation — either observes the ledger between activations or
   takes a delta across a window the unflushed balance is constant over,
   so totals are bit-identical to per-op charging; nested calls flush
   before returning to their caller.  Charges made directly by handlers
   (builtin costs) commute with the flush. *)
let flush_acct (fr : frame) =
  if fr.icnt_ <> 0 then begin
    let a = fr.acct in
    Runtime.Ledger.charge_interp_on a fr.cyc_;
    a.a_instrs <- a.a_instrs + fr.icnt_;
    fr.cyc_ <- 0;
    fr.icnt_ <- 0
  end

(* The threaded loop variants live at toplevel (not as closures inside
   [run]) so an activation allocates nothing beyond the frame.
   The try sits outside the while loop (no trap push per dispatch); when
   a handler throws, [fr.pc_] is still the faulting pc — handlers only
   advance it by returning normally. *)

(* production configuration: no per-op probes at all — the whole
   dispatch is the retired-count bump and the handler call (handlers
   accrue their own pre-bound cost) *)
let rec exec_plain (code : handler array) (fr : frame) : unit =
  try
    while fr.pc_ >= 0 do
      fr.icnt_ <- fr.icnt_ + 1;
      fr.pc_ <- code.(fr.pc_) fr
    done
  with Php_exception exn_v ->
    unwind_to_handler fr exn_v;
    exec_plain code fr

(* vmstats or the profiler on: the production dispatch plus the per-op
   probes.  [counts] is this domain's vmstats counter array, fetched
   once per activation; [fl_ctrs] gives each pc's slot in it.  [fl_cost]
   is read here only to attribute the charge per opcode — the accrual
   itself still happens inside the handler.  The switches are
   activation-invariant (they flip only at quiescent points). *)
let rec exec_probed (fl : flat) (stats_on : bool) (counts : int array)
    (prof_on : bool) (p : Obs.Profiler.state) (fr : frame) : unit =
  let code = fl.fl_code and ctrs = fl.fl_ctrs in
  try
    while fr.pc_ >= 0 do
      let i = fr.pc_ in
      fr.icnt_ <- fr.icnt_ + 1;
      if stats_on then begin
        let k = ctrs.(i) in
        counts.(k) <- counts.(k) + 1
      end;
      if prof_on then Obs.Profiler.op_charge p fl.fl_opid.(i) fl.fl_cost.(i);
      fr.pc_ <- code.(i) fr
    done
  with Php_exception exn_v ->
    unwind_to_handler fr exn_v;
    exec_probed fl stats_on counts prof_on p fr

(** Interpret [fr] starting at [start_pc] until the function returns,
    consulting the JIT at taken-jump targets (OSR entry points).  This is
    the closure-threaded dispatch loop over the function's flat form.
    The loop variant is chosen once per activation from the vmstats and
    profiler switches, so a probes-off run pays zero option tests,
    counter bumps or cost-model matches per op — just the accrual and
    the handler call. *)
let run (fr : frame) (start_pc : int) : value =
  let fl = flat_of fr.func in
  ignore (acct_of fr);
  fr.pc_ <- start_pc;
  fr.ret_ <- VUninit;
  (* cyc_/icnt_ are zero here: zero at construction, re-zeroed by every
     flush — including the one on the exception path *)
  let stats_on = Obs.Vmstats.on () in
  let prof_on = Obs.Profiler.on () in
  (try
     if not (stats_on || prof_on) then exec_plain fl.fl_code fr
     else
       exec_probed fl stats_on (Obs.Vmstats.counts ()) prof_on
         (if prof_on then Obs.Profiler.local () else no_prof) fr
   with e ->
     flush_acct fr;
     raise e);
  flush_acct fr;
  fr.ret_

(** Interpret a call from scratch (no JIT). *)
let call_interpreted (u : Hhbc.Hunit.t) (fid : int) (args : value array)
    (this_ : value) : value =
  let f = Hhbc.Hunit.func u fid in
  let fr = make_frame u f args this_ in
  (* an escaping Php_exception propagates with the frame already torn
     down by [run]'s unwinder *)
  run fr 0

let () = call_dispatch := call_interpreted

(** Resume a frame by dispatching an exception raised at [pc] (used by the
    engine when an exception unwinds out of compiled code through a call
    fixup).  Either continues in a matching handler and returns the frame's
    eventual result, or tears the frame down and re-raises. *)
let resume_with_exception (fr : frame) (pc : int) (exn_v : value) : value =
  match find_handler fr pc exn_v with
  | Some e ->
    let a = acct_of fr in
    for j = 0 to fr.sp - 1 do
      Runtime.Heap.decref_on a fr.stack.(j);
      fr.stack.(j) <- VUninit
    done;
    fr.sp <- 0;
    Runtime.Heap.decref_on a fr.locals.(e.ex_local);
    fr.locals.(e.ex_local) <- exn_v;
    run fr e.ex_handler
  | None ->
    teardown fr;
    raise (Php_exception exn_v)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(** Call a function by name with OCaml-side arguments (owned by callee). *)
let call_by_name (u : Hhbc.Hunit.t) (name : string) (args : value list) : value =
  match Hhbc.Hunit.find_func u name with
  | Some fid -> !call_dispatch u fid (Array.of_list args) VNull
  | None -> fatal "undefined function %s" name
