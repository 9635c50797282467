(** The SimCPU execution engine: runs assembled translations.

    Registers hold runtime values (the word of our simulated ISA); every
    instruction charges its execution cost plus instruction-fetch costs from
    the i-cache and I-TLB models, and +2 cycles per memory (spill-slot)
    operand.  PHP-level calls re-enter the engine through the interpreter's
    call dispatcher; exceptions raised inside callees unwind through the
    call-site fixup (HHVM's fixup map).

    A translation runs from its flattened form, a {!prog}, built once when
    the translation is placed ({!flatten}): one pre-bound closure per
    instruction, with operands resolved to register-file indices, branch
    labels to instruction indices, and the cycle cost (spill-slot surcharge
    included) folded into one constant per instruction.  The closures
    capture only the translation's immutable data — the machine's per-depth
    run state and the frame are arguments — so every domain can run the
    same prog (DESIGN.md §11a). *)

open Vasm.Vinstr
open Vasm.Regalloc
open Runtime.Value
module Ops = Runtime.Ops

type outcome =
  | XReturn of value            (** translation executed RetC *)
  | XBind of int                (** left through exit id (ReqBind) *)
  | XUnwind of int * value      (** exception at a call with this fixup *)

type machine = {
  (* the creating domain's ledger account and vmstats store: a machine
     runs only on the domain that created it (the engine's on the main
     domain, a serving worker's on that worker), so its runs, refcount
     ops and dispatch probes charge and count through these without a
     domain-local read *)
  ledger : Runtime.Ledger.acct;
  vstats : Obs.Vmstats.store;
  icache : Simcpu.Icache.t;
  itlb : Simcpu.Itlb.t;
  (* inline caches, dense by cache-site id: (cls, fid); (-1, -1) = empty *)
  mutable meth_caches : (int * int) array;
  mutable instrs_executed : int;
  (* cycle attribution per translation kind (Fig. 9's live/optimized split) *)
  mutable cycles_live : int;
  mutable cycles_prof : int;
  mutable cycles_opt : int;
  (* per-translation telemetry, dense by prog id: entries and simulated
     cycles spent inside.  Each domain counts on its own machine and the
     scheduler folds workers into the engine's ([Engine.merge_machine]);
     tc-print ranks by these and eviction reads the entries. *)
  mutable execs : int array;
  mutable tcycles : int array;
  (* run states of the runs in progress, outermost first: a helper's PHP
     call can re-enter the engine, and each nested run takes the next
     one.  [depth] is the number in use. *)
  mutable states : state array;
  mutable depth : int;
}

(** One run's mutable state, reused by every run at its depth. *)
and state = {
  mutable file : value array;        (* registers, then spill slots *)
  mutable sp : int;                  (* frame.sp at entry *)
  acct : Runtime.Ledger.acct;        (* the machine's [ledger] *)
  mutable pctx : Vm.Prof.ctx;        (* profile write context, per run *)
  mutable pend : int;                (* cycles not yet charged to [acct] *)
  mutable spent : int;               (* cycles this run has charged *)
  mutable out : outcome;
  mutable argv : value array array;  (* call-argument vectors, by length *)
  owner : machine;
}

(** An instruction: runs against the run state and frame, returns the
    index of the next instruction, or -1 when the run ends (its outcome
    then is in [out]). *)
type op = state -> Vm.Interp.frame -> int

type prog = {
  pg_id : int;
  pg_fid : int;
  pg_srckey : int;
  pg_kind_name : string;             (* the translation kind, for profiles *)
  pg_attribute : machine -> int -> unit;  (* adds to the kind's cycles *)
  pg_ops : op array;                 (* one per instruction, then a sentinel *)
  pg_cost : int array;               (* cycles, spill surcharge included *)
  (* byte address of each instruction; [Translation.relocate] rewrites it
     in place, and every fetch reads it *)
  pg_addr : int array;
  pg_slot0 : int;                    (* register-file index of slot 0 *)
  pg_file : int;                     (* register-file size *)
  pg_counts : bool;                  (* has a [VCounter] *)
}

let rec create_machine () : machine =
  let m = {
    ledger = Runtime.Ledger.acct ();
    vstats = Obs.Vmstats.local ();
    icache = Simcpu.Icache.create ();
    itlb = Simcpu.Itlb.create ();
    meth_caches = Array.make 64 (-1, -1);
    instrs_executed = 0;
    cycles_live = 0; cycles_prof = 0; cycles_opt = 0;
    execs = [||]; tcycles = [||];
    states = [||]; depth = 0;
  } in
  m.states <- [| fresh_state m |];
  m

and fresh_state (m : machine) : state =
  { file = [||]; sp = 0; acct = m.ledger; pctx = Vm.Prof.main_ctx; pend = 0;
    spent = 0; out = XBind (-1); argv = [||]; owner = m }

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

(** Charge the cycles accrued since the last flush.  Runs before every
    helper call and every [VDecRef] (a helper may charge, read the ledger,
    or re-enter the engine; a decref may run a destructor, which does all
    three) and when the run ends. *)
let flush (st : state) : unit =
  let c = st.pend in
  Runtime.Ledger.charge_jit_on st.acct c;
  st.spent <- st.spent + c;
  st.pend <- 0

(** Fill this depth's argument vector of the right length from the
    register file.  Callees copy their arguments out before anything can
    re-enter at this depth, so one vector per length is enough. *)
let argv (st : state) (ix : int array) (from : int) : value array =
  let k = Array.length ix - from in
  if k >= Array.length st.argv then
    st.argv <-
      Array.init (k + 1)
        (fun j -> if j < Array.length st.argv then st.argv.(j)
          else Array.make j VNull);
  let a = st.argv.(k) and f = st.file in
  for j = 0 to k - 1 do a.(j) <- f.(ix.(from + j)) done;
  a

(* ------------------------------------------------------------------ *)
(* Runtime helpers                                                     *)
(* ------------------------------------------------------------------ *)

(** Bind a helper to its argument registers ([ix], file indices). *)
let bind_helper (h : helper) (ix : int array)
  : state -> Vm.Interp.frame -> value =
  (* a missing argument reads index -1: out of bounds, as before *)
  let at n = if n < Array.length ix then ix.(n) else -1 in
  let x0 = at 0 and x1 = at 1 and x2 = at 2 in
  match h with
  | HGenBinop op ->
    let g = Ops.binop_fn op in
    fun st _ -> let f = st.file in g f.(x0) f.(x1)
  | HGenUnop op -> fun st _ -> Ops.unop_fn op st.file.(x0)
  | HGenPrint | HPrintStr | HPrintInt ->
    fun st _ -> Vm.Output.write (to_string_val st.file.(x0)); VNull
  | HConcat ->
    fun st _ ->
      let f = st.file in
      Runtime.Heap.new_str_on st.acct
        (to_string_val f.(x0) ^ to_string_val f.(x1))
  | HToStr ->
    fun st _ -> Runtime.Heap.new_str_on st.acct (Ops.to_str st.file.(x0))
  | HToInt -> fun st _ -> VInt (Ops.to_int st.file.(x0))
  | HToDbl -> fun st _ -> VDbl (Ops.to_dbl st.file.(x0))
  | HNewArr -> fun st _ -> Runtime.Heap.new_arr_on st.acct
  | HArrAppend ->
    fun st _ ->
      let f = st.file in
      let node = need_arr_node f.(x0) in
      VArr (Runtime.Varray.append node f.(x1))
  | HArrSet ->
    fun st _ ->
      let f = st.file in
      let node = need_arr_node f.(x0) in
      VArr (Runtime.Varray.set node (Runtime.Varray.key_of_value f.(x1)) f.(x2))
  | HArrUnset ->
    fun st _ ->
      let f = st.file in
      let node = need_arr_node f.(x0) in
      VArr (Runtime.Varray.unset node (Runtime.Varray.key_of_value f.(x1)))
  | HArrGet ->
    fun st _ ->
      let f = st.file in
      let node = need_arr_node f.(x0) in
      let k = Runtime.Varray.key_of_value f.(x1) in
      let v = Runtime.Varray.get node.data k in
      Runtime.Heap.incref_on st.acct v;
      v
  | HArrGetPacked ->
    fun st _ ->
      let f = st.file in
      let node = need_arr_node f.(x0) in
      let i = match f.(x1) with VInt i -> i | v -> to_int_val v in
      let v =
        if i >= 0 && i < node.data.count then snd node.data.entries.(i)
        else VNull
      in
      Runtime.Heap.incref_on st.acct v;
      v
  | HArrIsset ->
    fun st _ ->
      let f = st.file in
      let node = need_arr_node f.(x0) in
      let k = Runtime.Varray.key_of_value f.(x1) in
      (match Runtime.Varray.find_opt node.data k with
       | Some VNull | None -> VBool false
       | Some _ -> VBool true)
  | HLdPropGen p ->
    let site = Runtime.Vclass.prop_site p in
    fun st _ ->
      let o = need_obj st.file.(x0) in
      let slot = Runtime.Vclass.site_slot site o.data.cls in
      if slot < 0 then Vm.Interp.undefined_prop o p;
      let v = o.data.props.(slot) in
      Runtime.Heap.incref_on st.acct v;
      v
  | HStPropGen p ->
    let site = Runtime.Vclass.prop_site p in
    fun st _ ->
      let f = st.file in
      let o = need_obj f.(x0) in
      let v = f.(x1) in
      let slot = Runtime.Vclass.site_slot site o.data.cls in
      if slot < 0 then Vm.Interp.undefined_prop o p;
      Runtime.Heap.incref_on st.acct v;
      let old = o.data.props.(slot) in
      o.data.props.(slot) <- v;
      Runtime.Heap.decref_on st.acct old;
      VNull
  | HIncDecProp (slot, op) ->
    fun st _ ->
      let o = need_obj st.file.(x0) in
      let old = o.data.props.(slot) in
      let nv, result = Ops.incdec op old in
      o.data.props.(slot) <- nv;
      result
  | HIssetPropGen p ->
    let site = Runtime.Vclass.prop_site p in
    fun st _ ->
      let o = need_obj st.file.(x0) in
      let slot = Runtime.Vclass.site_slot site o.data.cls in
      Ops.vbool
        (slot >= 0
         && (match o.data.props.(slot) with VNull | VUninit -> false | _ -> true))
  | HIssetVal ->
    fun st _ ->
      Ops.vbool (match st.file.(x0) with VNull | VUninit -> false | _ -> true)
  | HInstanceOfGen cname | HInstanceOfBits cname ->
    fun st _ ->
      (match st.file.(x0) with
       | VObj o ->
         Ops.vbool
           (Runtime.Vclass.instanceof (Runtime.Vclass.get o.data.cls) cname)
       | _ -> VBool false)
  | HCallPhp fid ->
    fun st frame ->
      !Vm.Interp.call_dispatch frame.unit_ fid (argv st ix 0) VNull
  | HCallPhpT fid ->
    fun st frame ->
      let this_ = st.file.(x0) in
      !Vm.Interp.call_dispatch frame.unit_ fid (argv st ix 1) this_
  | HCallMethod mname ->
    fun st frame ->
      let recv = st.file.(x0) in
      let meth = Vm.Interp.lookup_method_for recv mname in
      !Vm.Interp.call_dispatch frame.unit_ meth.m_func (argv st ix 1) recv
  | HCallMethodCached (mname, cid) ->
    fun st frame ->
      let m = st.owner in
      let recv = st.file.(x0) in
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
          (* cache miss: full lookup + cache update *)
          Runtime.Ledger.charge_jit_on st.acct 22;
          let meth = Vm.Interp.lookup_method_for recv mname in
          m.meth_caches.(cid) <- (o.data.cls, meth.m_func);
          meth.m_func
        end
      in
      !Vm.Interp.call_dispatch frame.unit_ fid (argv st ix 1) recv
  | HCheckMethodFid (mname, fid) ->
    fun st _ ->
      let o = need_obj st.file.(x0) in
      let c = Runtime.Vclass.get o.data.cls in
      (match Runtime.Vclass.lookup_method c mname with
       | Some meth -> Ops.vbool (meth.m_func = fid)
       | None -> VBool false)
  | HCallCtor cname ->
    let ctor = Vm.Interp.constructor_for cname in
    fun st frame -> ctor frame.unit_ (argv st ix 0)
  | HCallBuiltin name ->
    fun st _ ->
      let args = argv st ix 0 in
      Runtime.Ledger.charge_jit_on st.acct (Vm.Builtins.cost name args);
      Vm.Builtins.call name args
  | HIterInit it ->
    fun st frame ->
      (match st.file.(x0) with
       | VArr node as v ->
         if node.data.count = 0 then begin
           Runtime.Heap.decref_on st.acct v;
           VBool false
         end else begin
           let s = frame.iters.(it) in
           s.it_arr <- Some node;
           s.it_pos <- 0;
           VBool true
         end
       | v -> fatal "foreach over non-array %s" (tag_name (tag_of_value v)))
  | HIterKV (it, kloc, vloc) ->
    fun st frame ->
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
            Runtime.Heap.decref_on st.acct old
          | None -> ());
         Runtime.Heap.incref_on st.acct v;
         let old = frame.locals.(vloc) in
         frame.locals.(vloc) <- v;
         Runtime.Heap.decref_on st.acct old;
         VNull
       | None -> err "IterKV on dead iterator")
  | HIterNext it ->
    fun _ frame ->
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
    fun _ frame -> Vm.Interp.free_iter frame.iters.(it); VNull
  | HTeardown ->
    fun _ frame -> Vm.Interp.teardown frame; VNull

(* ------------------------------------------------------------------ *)
(* Flattening                                                          *)
(* ------------------------------------------------------------------ *)

(* Cycles an instruction charges for its spill-slot operands: 2 per slot it
   reads or writes (the exit's liveness lists are not read). *)
let slot_surcharge (i : operand t) : int =
  let c = function Slot _ -> 2 | Reg _ -> 0 in
  let sum = List.fold_left (fun a o -> a + c o) 0 in
  match i with
  | VHelper (_, args, dst, _) ->
    sum args + (match dst with Some d -> c d | None -> 0)
  | VReqBind _ -> 0
  | i -> sum (uses i) + (match def i with Some d -> c d | None -> 0)

(** Lower placed code to its flattened form.  [addr] is shared, not
    copied: relocation rewrites it in place. *)
let flatten ~(id : int) ~(fid : int) ~(srckey : int) ~(kind_name : string)
    ~(attribute : machine -> int -> unit)
    ~(code : operand t array) ~(addr : int array)
    ~(labels : (int, int) Hashtbl.t) ~(nslots : int) : prog =
  let n = Array.length code in
  (* slots start past register 15 at least, so no register a [tr_loc]
     location names (read through [final_reader]) aliases a slot *)
  let top = ref 15 in
  let see = function Reg r -> top := max !top r | Slot _ -> () in
  Array.iter
    (fun i -> List.iter see (uses i); Option.iter see (def i))
    code;
  let slot0 = !top + 1 in
  let ix = function Reg r -> r | Slot s -> slot0 + s in
  let target l =
    match Hashtbl.find_opt labels l with
    | Some t -> t
    | None -> err "translation %d: branch to unknown label %d" id l
  in
  let op_of (i : int) (ins : operand t) : op =
    let next = i + 1 in
    match ins with
    | VImm (d, v) -> let d = ix d in fun st _ -> st.file.(d) <- v; next
    | VMov (d, s) ->
      let d = ix d and s = ix s in
      fun st _ -> let f = st.file in f.(d) <- f.(s); next
    | VArithI (op, d, x, y) ->
      let d = ix d and x = ix x and y = ix y in
      fun st _ ->
        let f = st.file in
        let xi = to_int_val f.(x) and yi = to_int_val f.(y) in
        f.(d) <- VInt (Ops.int_arith op xi yi); next
    | VArithD (op, d, x, y) ->
      let d = ix d and x = ix x and y = ix y in
      fun st _ ->
        let f = st.file in
        let xd = to_dbl_val f.(x) and yd = to_dbl_val f.(y) in
        f.(d) <- VDbl (Ops.dbl_arith op xd yd); next
    | VNegI (d, s) ->
      let d = ix d and s = ix s in
      fun st _ -> let f = st.file in
        f.(d) <- VInt (Ops.neg_int (Ops.to_int f.(s))); next
    | VNegD (d, s) ->
      let d = ix d and s = ix s in
      fun st _ -> let f = st.file in
        f.(d) <- VDbl (Ops.neg_dbl (Ops.to_dbl f.(s))); next
    | VNotB (d, s) ->
      let d = ix d and s = ix s in
      fun st _ -> let f = st.file in
        f.(d) <- Ops.vbool (not (Ops.to_bool f.(s))); next
    | VCvtID (d, s) ->
      let d = ix d and s = ix s in
      fun st _ -> let f = st.file in
        f.(d) <- VDbl (Ops.int_to_dbl (Ops.to_int f.(s))); next
    | VCmpI (c, d, x, y) ->
      let d = ix d and x = ix x and y = ix y in
      fun st _ -> let f = st.file in
        f.(d) <-
          Ops.vbool (Ops.cmp_int c (to_int_val f.(x)) (to_int_val f.(y)));
        next
    | VCmpD (c, d, x, y) ->
      let d = ix d and x = ix x and y = ix y in
      fun st _ -> let f = st.file in
        f.(d) <-
          Ops.vbool (Ops.cmp_dbl c (to_dbl_val f.(x)) (to_dbl_val f.(y)));
        next
    | VCmpS (c, d, x, y) ->
      let d = ix d and x = ix x and y = ix y in
      fun st _ -> let f = st.file in
        f.(d) <-
          Ops.vbool (Ops.cmp_str c (to_string_val f.(x)) (to_string_val f.(y)));
        next
    | VCmpB (d, x, y) ->
      let d = ix d and x = ix x and y = ix y in
      fun st _ -> let f = st.file in
        f.(d) <- Ops.vbool (Ops.to_bool f.(x) = Ops.to_bool f.(y)); next
    | VToBool (d, s) ->
      let d = ix d and s = ix s in
      fun st _ -> let f = st.file in f.(d) <- Ops.vbool (Ops.to_bool f.(s)); next
    | VLdLoc (d, l) ->
      let d = ix d in fun st fr -> st.file.(d) <- fr.locals.(l); next
    | VStLoc (l, s) ->
      let s = ix s in fun st fr -> fr.locals.(l) <- st.file.(s); next
    | VLdStk (d, slot) ->
      let d = ix d in
      fun st fr -> st.file.(d) <- fr.stack.(st.sp + slot); next
    | VStStk (slot, s) ->
      let s = ix s in
      fun st fr -> fr.stack.(st.sp + slot) <- st.file.(s); next
    | VLdThis d -> let d = ix d in fun st fr -> st.file.(d) <- fr.this_; next
    | VLdProp (d, o, slot) ->
      let d = ix d and o = ix o in
      fun st _ -> let f = st.file in
        f.(d) <- (need_obj f.(o)).data.props.(slot); next
    | VStProp (o, slot, s) ->
      let o = ix o and s = ix s in
      fun st _ -> let f = st.file in
        (need_obj f.(o)).data.props.(slot) <- f.(s); next
    | VLdCls (d, s) ->
      let d = ix d and s = ix s in
      fun st _ -> let f = st.file in
        f.(d) <- VInt (need_obj f.(s)).data.cls; next
    | VCount (d, s) ->
      let d = ix d and s = ix s in
      fun st _ -> let f = st.file in
        f.(d) <- VInt (need_arr_node f.(s)).data.count; next
    | VCheckTag (s, ty, label) ->
      let s = ix s and t = target label in
      fun st _ -> if Hhbc.Rtype.value_matches ty st.file.(s) then next else t
    | VIncRef s ->
      let s = ix s in
      fun st _ -> Runtime.Heap.incref_on st.acct st.file.(s); next
    | VDecRef s ->
      let s = ix s in
      fun st _ ->
        flush st;
        (try Runtime.Heap.decref_on st.acct st.file.(s)
         with Failure msg ->
           failwith (Printf.sprintf "%s [tr=%d fid=%d srckey=%d ip=%d]"
                       msg id fid srckey i));
        next
    | VDecRefNZ s ->
      let s = ix s in
      fun st _ -> Runtime.Heap.decref_nz_on st.acct st.file.(s); next
    | VJmp label -> let t = target label in fun _ _ -> t
    | VJmpZ (s, label) ->
      let s = ix s and t = target label in
      fun st _ -> if Ops.to_bool st.file.(s) then next else t
    | VJmpNZ (s, label) ->
      let s = ix s and t = target label in
      fun st _ -> if Ops.to_bool st.file.(s) then t else next
    | VHelper (h, args, dst, fixup) ->
      let call = bind_helper h (Array.of_list (List.map ix args)) in
      let d = match dst with Some d -> ix d | None -> -1 in
      (match fixup with
       | None ->
         if d < 0 then fun st fr -> flush st; ignore (call st fr); next
         else
           fun st fr -> flush st; let r = call st fr in st.file.(d) <- r; next
       | Some (eid, _) ->
         (* an unwind skips the destination write and its surcharge *)
         let unwritten = match dst with Some (Slot _) -> 2 | _ -> 0 in
         fun st fr ->
           flush st;
           match call st fr with
           | r -> if d >= 0 then st.file.(d) <- r; next
           | exception Vm.Interp.Php_exception e ->
             st.out <- XUnwind (eid, e);
             st.pend <- st.pend - unwritten;
             -1)
    | VRet s -> let s = ix s in fun st _ -> st.out <- XReturn st.file.(s); -1
    | VSetSp k -> fun st fr -> fr.sp <- st.sp + k; next
    | VReqBind (eid, _) -> let o = XBind eid in fun st _ -> st.out <- o; -1
    | VCounter c -> fun st _ -> Vm.Prof.incr_counter_on st.pctx c; next
    | VProfMeth (f, pc, s) ->
      let s = ix s in
      fun st _ ->
        (match st.file.(s) with
         | VObj o -> Vm.Prof.record_method_target ~func:f ~pc ~cls:o.data.cls ()
         | _ -> ());
        next
    | VProfEdge callee ->
      fun _ _ -> Vm.Prof.record_call ~caller:fid ~callee; next
    | VSpill (slot, s) ->
      let d = slot0 + slot and s = ix s in
      fun st _ -> let f = st.file in f.(d) <- f.(s); next
    | VReload (d, slot) ->
      let d = ix d and s = slot0 + slot in
      fun st _ -> let f = st.file in f.(d) <- f.(s); next
    | VNop -> fun _ _ -> next
  in
  let fell_off : op =
    fun _ _ -> err "fell off translation %d (func %d)" id fid
  in
  {
    pg_id = id; pg_fid = fid; pg_srckey = srckey; pg_kind_name = kind_name;
    pg_attribute = attribute;
    pg_ops =
      Array.init (n + 1) (fun i -> if i = n then fell_off else op_of i code.(i));
    pg_cost =
      Array.init (n + 1)
        (fun i ->
           if i = n then 0 else cycles code.(i) + slot_surcharge code.(i));
    pg_addr = addr;
    pg_slot0 = slot0;
    pg_file = slot0 + max nslots 1;
    pg_counts =
      Array.exists (function VCounter _ -> true | _ -> false) code;
  }

(* ------------------------------------------------------------------ *)
(* The execution loop                                                  *)
(* ------------------------------------------------------------------ *)

(* the count at prog id [id] in [a]: 0 past its end *)
let count_of (a : int array) (id : int) : int =
  if id < Array.length a then a.(id) else 0

(* Make room for prog id [id] in both per-translation arrays. *)
let grow_counts (m : machine) (id : int) : unit =
  let n = max 64 (2 * (id + 1)) in
  let grow a =
    let b = Array.make n 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  m.execs <- grow m.execs;
  m.tcycles <- grow m.tcycles

(** Entries into [p] and simulated cycles spent inside it, as counted on
    machine [m]. *)
let execs (m : machine) (p : prog) : int = count_of m.execs p.pg_id
let cycles_in (m : machine) (p : prog) : int = count_of m.tcycles p.pg_id

(** Add [w]'s per-translation counts into [m]'s. *)
let fold_counts (m : machine) (w : machine) : unit =
  let n = Array.length w.execs in
  if n > Array.length m.execs then grow_counts m (n - 1);
  for id = 0 to n - 1 do
    m.execs.(id) <- m.execs.(id) + w.execs.(id);
    m.tcycles.(id) <- m.tcycles.(id) + w.tcycles.(id)
  done

(* A run's end, normal or not: retired instructions, the unflushed
   cycles, and the per-translation and per-kind totals. *)
let settle (m : machine) (p : prog) (st : state) (retired : int) : unit =
  m.instrs_executed <- m.instrs_executed + retired;
  flush st;
  let c = st.spent in
  m.tcycles.(p.pg_id) <- m.tcycles.(p.pg_id) + c;
  p.pg_attribute m c

(* A line cut by an unaligned huge-page bound has its halves on two
   pages; -1 when [bound] cuts none. *)
let cut_line (tlb : Simcpu.Itlb.t) (line_bits : int) (bound : int) : int =
  if tlb.Simcpu.Itlb.huge && bound land ((1 lsl line_bits) - 1) <> 0
  then bound lsr line_bits else -1

(** Run a translation's prog from instruction index [entry]. *)
let run (m : machine) (p : prog) ~(entry : int) ~(frame : Vm.Interp.frame)
    ~(entry_sp : int) : outcome =
  let d = m.depth in
  if d = Array.length m.states then
    m.states <- Array.append m.states [| fresh_state m |];
  let st = m.states.(d) in
  if Array.length st.file < p.pg_file then
    st.file <- Array.make p.pg_file VNull;
  st.sp <- entry_sp;
  (* a serving worker installs its own profile write context after its
     machine exists, so a counting run reads the domain's once *)
  if p.pg_counts then st.pctx <- Vm.Prof.wctx ();
  st.pend <- 0;
  st.spent <- 0;
  m.depth <- d + 1;
  if p.pg_id >= Array.length m.execs then grow_counts m p.pg_id;
  m.execs.(p.pg_id) <- m.execs.(p.pg_id) + 1;
  let prof = Obs.Profiler.on () in
  let ops = p.pg_ops and cost = p.pg_cost and addr = p.pg_addr in
  let n = Array.length addr in
  let open Simcpu in
  let ic = m.icache and tlb = m.itlb in
  let lb = ic.Icache.line_bits in
  (* [Itlb.set_huge] runs only between requests, so the bounds hold for
     the whole run *)
  let cut_lo = cut_line tlb lb tlb.Itlb.huge_lo
  and cut_hi = cut_line tlb lb tlb.Itlb.huge_hi in
  let ip = ref entry and retired = ref 0 in
  (match
     while !ip >= 0 do
       let i = !ip in
       (* A fetch on the i-cache's last line costs nothing and changes
          neither model: the last fetch, from this line, left the I-TLB on
          its page, unless [Itlb.set_huge] has reset it since or the line
          straddles a huge-page bound.  Exec makes every fetch. *)
       let fetch =
         if i < n then begin
           let a = addr.(i) in
           let l = a lsr lb in
           if l = ic.Icache.last_line && tlb.Itlb.last_page <> min_int
              && l <> cut_lo && l <> cut_hi
           then 0
           else Icache.access ic a + Itlb.access tlb a
         end else 0
       in
       incr retired;
       ip := ops.(i) st frame;
       st.pend <- st.pend + cost.(i) + fetch
     done
   with
   | () -> ()
   | exception e ->
     let bt = Printexc.get_raw_backtrace () in
     m.depth <- d;
     (* the fell-off sentinel is not an instruction *)
     settle m p st (if !ip = n then !retired - 1 else !retired);
     Printexc.raise_with_backtrace e bt);
  m.depth <- d;
  settle m p st !retired;
  if prof then
    Obs.Profiler.record_jit (Obs.Profiler.local ()) ~id:p.pg_id
      ~mk:(fun () ->
          Printf.sprintf "jit;%s;tr%d_%s@%d"
            frame.Vm.Interp.func.Hhbc.Instr.fn_name p.pg_id
            p.pg_kind_name p.pg_srckey)
      ~cycles:st.spent;
  st.out

(** A reader over the registers and spill slots of the run that just
    ended on [m] (running [p]); the engine uses it with [tr_loc] to
    materialize inline-exit frames.  Valid until the next run on [m]. *)
let final_reader (m : machine) (p : prog) : operand -> value =
  let file = m.states.(m.depth).file in
  function Reg r -> file.(r) | Slot s -> file.(p.pg_slot0 + s)
