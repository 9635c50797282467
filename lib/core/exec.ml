(** The SimCPU execution engine: runs assembled translations.

    Registers hold runtime values (the word of our simulated ISA); every
    instruction charges its execution cost plus instruction-fetch costs from
    the i-cache and I-TLB models, and +2 cycles per memory (spill-slot)
    operand.  PHP-level calls re-enter the engine through the interpreter's
    call dispatcher; exceptions raised inside callees unwind through the
    call-site fixup (HHVM's fixup map). *)

open Vasm.Vinstr
open Vasm.Regalloc
open Runtime.Value
module Ops = Runtime.Ops

type outcome =
  | XReturn of value            (** translation executed RetC *)
  | XBind of int                (** left through exit id (ReqBind) *)
  | XUnwind of int * value      (** exception at a call with this fixup *)

type machine = {
  icache : Simcpu.Icache.t;
  itlb : Simcpu.Itlb.t;
  (* inline caches, dense by cache-site id: (cls, fid); (-1, -1) = empty *)
  mutable meth_caches : (int * int) array;
  mutable instrs_executed : int;
  (* cycle attribution per translation kind (Fig. 9's live/optimized split) *)
  mutable cycles_live : int;
  mutable cycles_prof : int;
  mutable cycles_opt : int;
}

let create_machine () : machine = {
  icache = Simcpu.Icache.create ();
  itlb = Simcpu.Itlb.create ();
  meth_caches = Array.make 64 (-1, -1);
  instrs_executed = 0;
  cycles_live = 0; cycles_prof = 0; cycles_opt = 0;
}

let charge = Runtime.Ledger.charge_jit

exception Exec_error of string
let err fmt = Printf.ksprintf (fun m -> raise (Exec_error m)) fmt

let need_obj (v : value) : obj counted =
  match v with
  | VObj o -> o
  | _ -> fatal "expected object, got %s" (tag_name (tag_of_value v))

let need_arr_node (v : value) : arr counted =
  match v with
  | VArr a -> a
  | _ -> fatal "expected array, got %s" (tag_name (tag_of_value v))

(* ------------------------------------------------------------------ *)
(* Runtime helpers                                                     *)
(* ------------------------------------------------------------------ *)

let run_helper (m : machine) (frame : Vm.Interp.frame) (h : helper)
    (args : value array) : value =
  let a n = args.(n) in
  let dispatch = !Vm.Interp.call_dispatch in
  match h with
  | HGenBinop op -> Ops.binop_fn op (a 0) (a 1)
  | HGenUnop op -> Ops.unop_fn op (a 0)
  | HGenPrint -> Vm.Output.write (to_string_val (a 0)); VNull
  | HPrintStr | HPrintInt -> Vm.Output.write (to_string_val (a 0)); VNull
  | HConcat -> Runtime.Heap.new_str (to_string_val (a 0) ^ to_string_val (a 1))
  | HToStr -> Runtime.Heap.new_str (Ops.to_str (a 0))
  | HToInt -> VInt (Ops.to_int (a 0))
  | HToDbl -> VDbl (Ops.to_dbl (a 0))
  | HNewArr -> Runtime.Heap.new_arr ()
  | HArrAppend ->
    let node = need_arr_node (a 0) in
    VArr (Runtime.Varray.append node (a 1))
  | HArrSet ->
    let node = need_arr_node (a 0) in
    VArr (Runtime.Varray.set node (Runtime.Varray.key_of_value (a 1)) (a 2))
  | HArrUnset ->
    let node = need_arr_node (a 0) in
    VArr (Runtime.Varray.unset node (Runtime.Varray.key_of_value (a 1)))
  | HArrGet ->
    let node = need_arr_node (a 0) in
    let v = Runtime.Varray.get node.data (Runtime.Varray.key_of_value (a 1)) in
    Runtime.Heap.incref v;
    v
  | HArrGetPacked ->
    let node = need_arr_node (a 0) in
    let i = match a 1 with VInt i -> i | v -> to_int_val v in
    let v =
      if i >= 0 && i < node.data.count then snd node.data.entries.(i)
      else VNull
    in
    Runtime.Heap.incref v;
    v
  | HArrIsset ->
    let node = need_arr_node (a 0) in
    (match Runtime.Varray.find_opt node.data (Runtime.Varray.key_of_value (a 1)) with
     | Some VNull | None -> VBool false
     | Some _ -> VBool true)
  | HLdPropGen p ->
    let o = need_obj (a 0) in
    let c = Runtime.Vclass.get o.data.cls in
    (match Runtime.Vclass.prop_slot c p with
     | Some slot ->
       let v = o.data.props.(slot) in
       Runtime.Heap.incref v;
       v
     | None -> fatal "undefined property %s::$%s" c.c_name p)
  | HStPropGen p ->
    let o = need_obj (a 0) in
    let v = a 1 in
    let c = Runtime.Vclass.get o.data.cls in
    (match Runtime.Vclass.prop_slot c p with
     | Some slot ->
       Runtime.Heap.incref v;
       let old = o.data.props.(slot) in
       o.data.props.(slot) <- v;
       Runtime.Heap.decref old;
       VNull
     | None -> fatal "undefined property %s::$%s" c.c_name p)
  | HIncDecProp (slot, op) ->
    let o = need_obj (a 0) in
    let old = o.data.props.(slot) in
    let nv, result = Ops.incdec op old in
    o.data.props.(slot) <- nv;
    result
  | HIssetPropGen p ->
    let o = need_obj (a 0) in
    let c = Runtime.Vclass.get o.data.cls in
    (match Runtime.Vclass.prop_slot c p with
     | Some slot ->
       VBool (match o.data.props.(slot) with VNull | VUninit -> false | _ -> true)
     | None -> VBool false)
  | HIssetVal ->
    VBool (match a 0 with VNull | VUninit -> false | _ -> true)
  | HInstanceOfGen cname | HInstanceOfBits cname ->
    (match a 0 with
     | VObj o -> VBool (Runtime.Vclass.instanceof (Runtime.Vclass.get o.data.cls) cname)
     | _ -> VBool false)
  | HCallPhp fid ->
    dispatch frame.unit_ fid args VNull
  | HCallPhpT fid ->
    let this_ = a 0 in
    dispatch frame.unit_ fid (Array.sub args 1 (Array.length args - 1)) this_
  | HCallMethod mname ->
    let recv = a 0 in
    let meth = Vm.Interp.lookup_method_for recv mname in
    dispatch frame.unit_ meth.m_func (Array.sub args 1 (Array.length args - 1)) recv
  | HCallMethodCached (mname, cid) ->
    let recv = a 0 in
    let o = need_obj recv in
    if cid >= Array.length m.meth_caches then begin
      let bigger =
        Array.make (max (cid + 1) (2 * Array.length m.meth_caches)) (-1, -1)
      in
      Array.blit m.meth_caches 0 bigger 0 (Array.length m.meth_caches);
      m.meth_caches <- bigger
    end;
    let ccls, cfid = m.meth_caches.(cid) in
    let fid =
      if ccls = o.data.cls then cfid
      else begin
        charge 22;   (* cache miss: full lookup + cache update *)
        let meth = Vm.Interp.lookup_method_for recv mname in
        m.meth_caches.(cid) <- (o.data.cls, meth.m_func);
        meth.m_func
      end
    in
    dispatch frame.unit_ fid (Array.sub args 1 (Array.length args - 1)) recv
  | HCheckMethodFid (mname, fid) ->
    let o = need_obj (a 0) in
    (match Runtime.Vclass.lookup_method (Runtime.Vclass.get o.data.cls) mname with
     | Some meth -> VBool (meth.m_func = fid)
     | None -> VBool false)
  | HCallCtor cname ->
    Vm.Interp.new_object frame.unit_ cname args
  | HCallBuiltin name ->
    charge (Vm.Builtins.cost name args);
    Vm.Builtins.call name args
  | HIterInit it ->
    (match a 0 with
     | VArr node ->
       if node.data.count = 0 then begin
         Runtime.Heap.decref (a 0);
         VBool false
       end else begin
         let s = frame.iters.(it) in
         s.it_arr <- Some node;
         s.it_pos <- 0;
         VBool true
       end
     | v -> fatal "foreach over non-array %s" (tag_name (tag_of_value v)))
  | HIterKV (it, kloc, vloc) ->
    let s = frame.iters.(it) in
    (match s.it_arr with
     | Some node ->
       let k, v = node.data.entries.(s.it_pos) in
       (match kloc with
        | Some kl ->
          let kv = match k with
            | KInt i -> VInt i
            | KStr sk -> Hhbc.Hunit.intern sk
          in
          let old = frame.locals.(kl) in
          frame.locals.(kl) <- kv;
          Runtime.Heap.decref old
        | None -> ());
       Runtime.Heap.incref v;
       let old = frame.locals.(vloc) in
       frame.locals.(vloc) <- v;
       Runtime.Heap.decref old;
       VNull
     | None -> err "IterKV on dead iterator")
  | HIterNext it ->
    let s = frame.iters.(it) in
    (match s.it_arr with
     | Some node ->
       s.it_pos <- s.it_pos + 1;
       if s.it_pos < node.data.count then VBool true
       else begin
         Vm.Interp.free_iter s;
         VBool false
       end
     | None -> err "IterNext on dead iterator")
  | HIterFree it ->
    Vm.Interp.free_iter frame.iters.(it);
    VNull
  | HTeardown ->
    Vm.Interp.teardown frame;
    VNull

(* ------------------------------------------------------------------ *)
(* The execution loop                                                  *)
(* ------------------------------------------------------------------ *)

(** Run a translation from instruction index [entry].  Returns the outcome
    plus a reader over the final machine state (registers and spill slots),
    which the engine uses with [tr_loc] to materialize inline-exit frames. *)
let run_with_state (m : machine) (tr : Translation.t) ~(entry : int)
    ~(frame : Vm.Interp.frame) ~(entry_sp : int)
  : outcome * (Vasm.Regalloc.operand -> value) =
  let regs = Array.make 16 VNull in
  let slots = Array.make (max tr.tr_nslots 1) VNull in
  let extra = ref 0 in
  let rd (o : operand) : value =
    match o with
    | Reg r -> regs.(r)
    | Slot s -> extra := !extra + 2; slots.(s)
  in
  let wr (o : operand) (v : value) : unit =
    match o with
    | Reg r -> regs.(r) <- v
    | Slot s -> extra := !extra + 2; slots.(s) <- v
  in
  let result : outcome option ref = ref None in
  tr.tr_execs <- tr.tr_execs + 1;
  (* cycle-attribution profiler: accumulate this run's charges locally
     and record once at exit (tr_cycles is shared across domains, so a
     delta of it would race; the local accumulator never does) *)
  let prof =
    if Obs.Profiler.on () then Some (Obs.Profiler.local ()) else None
  in
  let prof_cycles = ref 0 in
  (* per-run hoist of the ledger account (mirrors the interpreter's
     per-activation hoist): the DLS read leaves the per-instruction loop *)
  let acct = Runtime.Ledger.acct () in
  let ip = ref entry in
  let code = tr.tr_code and addrs = tr.tr_addr in
  let jump label = ip := Hashtbl.find tr.tr_label_index label - 1 in
  while Option.is_none !result do
    if !ip >= Array.length code then
      err "fell off translation %d (func %d)" tr.tr_id tr.tr_fid;
    let i = code.(!ip) in
    let fetch =
      Simcpu.Icache.access m.icache addrs.(!ip)
      + Simcpu.Itlb.access m.itlb addrs.(!ip)
    in
    extra := 0;
    m.instrs_executed <- m.instrs_executed + 1;
    (match i with
     | VImm (d, v) -> wr d v
     | VMov (d, s) -> wr d (rd s)
     | VArithI (op, d, x, y) ->
       let xi = to_int_val (rd x) and yi = to_int_val (rd y) in
       wr d (VInt (Ops.int_arith op xi yi))
     | VArithD (op, d, x, y) ->
       let xd = to_dbl_val (rd x) and yd = to_dbl_val (rd y) in
       wr d (VDbl (Ops.dbl_arith op xd yd))
     | VNegI (d, s) -> wr d (VInt (Ops.neg_int (Ops.to_int (rd s))))
     | VNegD (d, s) -> wr d (VDbl (Ops.neg_dbl (Ops.to_dbl (rd s))))
     | VNotB (d, s) -> wr d (VBool (not (Ops.to_bool (rd s))))
     | VCvtID (d, s) -> wr d (VDbl (Ops.int_to_dbl (Ops.to_int (rd s))))
     | VCmpI (c, d, x, y) ->
       wr d (VBool (Ops.cmp_int c (to_int_val (rd x)) (to_int_val (rd y))))
     | VCmpD (c, d, x, y) ->
       wr d (VBool (Ops.cmp_dbl c (to_dbl_val (rd x)) (to_dbl_val (rd y))))
     | VCmpS (c, d, x, y) ->
       wr d (VBool (Ops.cmp_str c (to_string_val (rd x)) (to_string_val (rd y))))
     | VCmpB (d, x, y) ->
       wr d (VBool (Ops.to_bool (rd x) = Ops.to_bool (rd y)))
     | VToBool (d, s) -> wr d (VBool (Ops.to_bool (rd s)))
     | VLdLoc (d, l) -> wr d frame.locals.(l)
     | VStLoc (l, s) -> frame.locals.(l) <- rd s
     | VLdStk (d, slot) -> wr d frame.stack.(entry_sp + slot)
     | VStStk (slot, s) -> frame.stack.(entry_sp + slot) <- rd s
     | VLdThis d -> wr d frame.this_
     | VLdProp (d, o, slot) -> wr d (need_obj (rd o)).data.props.(slot)
     | VStProp (o, slot, s) -> (need_obj (rd o)).data.props.(slot) <- rd s
     | VLdCls (d, s) -> wr d (VInt (need_obj (rd s)).data.cls)
     | VCount (d, s) -> wr d (VInt (need_arr_node (rd s)).data.count)
     | VCheckTag (s, ty, label) ->
       if not (Hhbc.Rtype.value_matches ty (rd s)) then jump label
     | VIncRef s -> Runtime.Heap.incref (rd s)
     | VDecRef s ->
       (try Runtime.Heap.decref (rd s)
        with Failure msg ->
          failwith (Printf.sprintf "%s [tr=%d fid=%d srckey=%d ip=%d]"
                      msg tr.tr_id tr.tr_fid tr.tr_srckey !ip))
     | VDecRefNZ s -> Runtime.Heap.decref_nz (rd s)
     | VJmp label -> jump label
     | VJmpZ (s, label) -> if not (Ops.to_bool (rd s)) then jump label
     | VJmpNZ (s, label) -> if Ops.to_bool (rd s) then jump label
     | VHelper (h, hargs, dst, fixup) ->
       let argv = Array.of_list (List.map rd hargs) in
       (try
          let r = run_helper m frame h argv in
          Option.iter (fun d -> wr d r) dst
        with Vm.Interp.Php_exception e ->
          (match fixup with
           | Some (eid, _) -> result := Some (XUnwind (eid, e))
           | None -> raise (Vm.Interp.Php_exception e)))
     | VRet s -> result := Some (XReturn (rd s))
     | VSetSp n -> frame.sp <- entry_sp + n
     | VReqBind (eid, _) -> result := Some (XBind eid)
     | VCounter c -> Vm.Prof.incr_counter c
     | VProfMeth (f, pc, s) ->
       (match rd s with
        | VObj o -> Vm.Prof.record_method_target ~func:f ~pc ~cls:o.data.cls ()
        | _ -> ())
     | VProfEdge callee -> Vm.Prof.record_call ~caller:tr.tr_fid ~callee
     | VSpill (slot, s) -> slots.(slot) <- rd s
     | VReload (d, slot) -> wr d slots.(slot)
     | VNop -> ());
    let c = cycles i + fetch + !extra in
    Runtime.Ledger.charge_jit_on acct c;
    tr.tr_cycles <- tr.tr_cycles + c;
    if prof <> None then prof_cycles := !prof_cycles + c;
    (match tr.tr_kind with
     | Translation.KLive -> m.cycles_live <- m.cycles_live + c
     | Translation.KProfiling -> m.cycles_prof <- m.cycles_prof + c
     | Translation.KOptimized -> m.cycles_opt <- m.cycles_opt + c);
    incr ip
  done;
  (match prof with
   | Some st ->
     Obs.Profiler.record_jit st ~id:tr.tr_id
       ~mk:(fun () ->
           Printf.sprintf "jit;%s;tr%d_%s@%d"
             frame.Vm.Interp.func.Hhbc.Instr.fn_name tr.tr_id
             (Translation.kind_name tr.tr_kind) tr.tr_srckey)
       ~cycles:!prof_cycles
   | None -> ());
  let reader (o : operand) : value =
    match o with Reg r -> regs.(r) | Slot s -> slots.(s)
  in
  (Option.get !result, reader)

let run m tr ~entry ~frame ~entry_sp : outcome =
  fst (run_with_state m tr ~entry ~frame ~entry_sp)
