(** Region → HHIR lowering.

    Walks each region block's bytecode with a symbolic eval stack of SSA
    temporaries, emitting typed IR.  Reference counting is made explicit
    (IncRef/DecRef instructions) so the RCE pass can optimize it.

    Eval-stack addressing: LdStk/StStk offsets are *slot indices relative to
    the frame's sp at region entry* (can be negative).  Each region block
    has a statically known stack delta; in-block symbolic values are flushed
    to their final slots before control leaves the block, so side exits need
    only (resume pc, sp delta) — plus a callee frame description for exits
    inside partially inlined code (§5.3.1).

    Guard placement: the region entry chain's guards are checked by the
    engine when selecting a translation entry; all other chain heads emit
    CheckLoc/CheckStk inline, and guards implied by every intra-region
    predecessor's postconditions are elided (the main payoff of region-based
    compilation over tracelets). *)

open Hhbc.Instr
module R = Hhbc.Rtype
open Ir

type mode = Live | Profiling | Optimized

(* partial inlining: a callee of more basic blocks is never inlined *)
let max_inline_blocks = 4

type options = {
  o_inline : bool;
  o_method_dispatch : bool;   (* profile-guided devirtualization *)
  o_inline_cache : bool;
  o_max_inline_instrs : int;
  o_rce : bool;               (* consumed by the opt pipeline, carried here *)
  o_load_elim : bool;
  o_store_elim : bool;
  o_gvn : bool;
  o_simplify : bool;
  o_relax : bool;
}

(* inline caches for CallMethodCached: ids are allocated at lowering time
   but are *unit-local* (0-based per lowered IR); Translation.place maps
   them onto globally unique ids when the code is installed, keeping the
   lowering pipeline free of shared mutable state (JIT workers run it
   concurrently during retranslate-all) *)
let new_cache_id (u : Ir.t) = u.Ir.next_cache <- u.Ir.next_cache + 1; u.Ir.next_cache - 1

type inline_ctx = {
  in_fid : int;
  in_func : Hhbc.Instr.func;
  in_this : tmp option;
  in_locals : (int, tmp) Hashtbl.t;   (* callee local -> current value *)
  in_ret_pc : int;                    (* caller pc after the call *)
  in_ret_slot : int;                  (* stack slot for the return value *)
}

type lstate = {
  mutable stack : tmp list;        (* symbolic eval stack, top first *)
  mutable consumed : int;          (* entry slots popped so far *)
  ltypes : (int, R.t) Hashtbl.t;   (* known local types *)
  mutable inline : inline_ctx option;
}

type env = {
  u : Ir.t;
  hunit : Hhbc.Hunit.t;
  func : Hhbc.Instr.func;
  func_id : int;
  region : Region.Rdesc.t;
  mode : mode;
  opts : options;
  (* region block id -> (IR block id, static stack delta at block entry) *)
  blkmap : (int, int) Hashtbl.t;
  deltas : (int, int) Hashtbl.t;
  chain_next : (int, int) Hashtbl.t;
  chain_heads : (int, Region.Rdesc.block list) Hashtbl.t;  (* start pc -> chain order *)
}

exception Lower_error of string
let err fmt = Printf.ksprintf (fun m -> raise (Lower_error m)) fmt

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)
(* ------------------------------------------------------------------ *)

let is_counted_ty (t : R.t) = R.maybe_counted t

(** Emit into [b]; returns the dst tmp (fresh, typed [ty]). *)
let emitd env b ~bcpc ?taken (op : op) (args : tmp list) (ty : R.t) : tmp =
  let dst = new_tmp env.u ty in
  ignore (append env.u b ~dst:(Some dst) ~taken ~bcpc op args);
  dst

(** Like [emitd] but also returns the instruction (for fixups). *)
let emitc env b ~bcpc (op : op) (args : tmp list) (ty : R.t) : instr * tmp =
  let dst = new_tmp env.u ty in
  let i = append env.u b ~dst:(Some dst) ~taken:None ~bcpc op args in
  (i, dst)

let emit0 env b ~bcpc ?taken (op : op) (args : tmp list) : unit =
  ignore (append env.u b ~dst:None ~taken ~bcpc op args)

let incref env b ~bcpc (t : tmp) =
  if is_counted_ty t.t_ty then emit0 env b ~bcpc IncRef [ t ]

let decref env b ~bcpc (t : tmp) =
  if is_counted_ty t.t_ty then emit0 env b ~bcpc DecRef [ t ]

(* ------------------------------------------------------------------ *)
(* Symbolic stack                                                      *)
(* ------------------------------------------------------------------ *)

(** Stack slot index (region-entry-sp relative) of entry-depth [d] for a
    block with entry delta [delta]. *)
let entry_slot ~delta d = delta - 1 - d

let push (st : lstate) (t : tmp) = st.stack <- t :: st.stack

(** Pop; materializes an entry slot as a load when the symbolic stack is
    empty.  [ty_of_depth] supplies the best known type for entry slots. *)
let pop env b ~bcpc ~delta ~(ty_of_depth : int -> R.t) (st : lstate) : tmp =
  match st.stack with
  | t :: rest -> st.stack <- rest; t
  | [] ->
    let d = st.consumed in
    st.consumed <- st.consumed + 1;
    let ty = ty_of_depth d in
    emitd env b ~bcpc (LdStk (entry_slot ~delta d)) [] ty

(** Flush the symbolic stack to its final VM slots; returns the exit sp
    delta (relative to region entry sp). *)
let flush_stack env b ~bcpc ~delta (st : lstate) : int =
  let vals = List.rev st.stack in  (* bottom first *)
  let base = delta - st.consumed in
  List.iteri
    (fun i v -> emit0 env b ~bcpc (StStk (base + i)) [ v ])
    vals;
  base + List.length vals

(* ------------------------------------------------------------------ *)
(* Exits                                                               *)
(* ------------------------------------------------------------------ *)

(** Create a stub block that flushes the given state and leaves the region
    to bytecode [pc].  Returns the stub's IR block id. *)
let make_exit_stub env ~bcpc ?(interp = false) ~(pc : int) ~(spdelta : int)
    ~(flush : (int * tmp) list) ~(inline : inline_exit option) () : int =
  let b = new_block env.u in
  List.iter (fun (slot, v) -> emit0 env b ~bcpc (StStk slot) [ v ]) flush;
  let id = add_exit env.u { es_pc = pc; es_spdelta = spdelta;
                            es_inline = inline; es_interp = interp } in
  emit0 env b ~bcpc (ReqBind id) [];
  b.b_id

(** Pending flush for the current state (used for side-exit stubs). *)
let pending_flush ~delta (st : lstate) : (int * tmp) list * int =
  let vals = List.rev st.stack in
  let base = delta - st.consumed in
  (List.mapi (fun i v -> (base + i, v)) vals, base + List.length vals)

let inline_exit_of (st : lstate) ~(callee_pc : int) : inline_exit option =
  match st.inline with
  | None -> None
  | Some ic ->
    Some { ie_fid = ic.in_fid;
           ie_this = ic.in_this;
           ie_locals = Hashtbl.fold (fun k v acc -> (k, v) :: acc) ic.in_locals [];
           ie_stack = [];
           ie_pc = callee_pc }

(** Side exit target for a guard/check at the current point: resume the
    (outer) interpreter at [pc]. *)
let side_exit env ~bcpc ~delta (st : lstate) ~(outer_pc : int)
    ~(callee_pc : int option) : int =
  let flush, spdelta = pending_flush ~delta st in
  let inline = match callee_pc with
    | Some cpc -> inline_exit_of st ~callee_pc:cpc
    | None -> None
  in
  (* side exits re-execute the current instruction: force interpretation *)
  make_exit_stub env ~bcpc ~interp:true ~pc:outer_pc ~spdelta ~flush ~inline ()

(** Record an exception-unwinding fixup for a call instruction: the VM
    state at the call (HHVM's fixup map). *)
let record_fixup env (call_instr : instr) ~(bcpc : int) ~(delta : int)
    (st : lstate) : unit =
  let spdelta = delta - st.consumed + List.length st.stack in
  let inline =
    match st.inline with
    | None -> None
    | Some ic ->
      Some { ie_fid = ic.in_fid; ie_this = ic.in_this;
             ie_locals = Hashtbl.fold (fun k v a -> (k, v) :: a) ic.in_locals [];
             ie_stack = []; ie_pc = bcpc }
  in
  let es_pc = match st.inline with
    | None -> bcpc
    | Some ic -> ic.in_ret_pc
  in
  let id = add_exit env.u { es_pc; es_spdelta = spdelta; es_inline = inline;
                            es_interp = false } in
  Hashtbl.replace env.u.call_fixups call_instr.i_id id

(* ------------------------------------------------------------------ *)
(* Frame abstraction: the outer frame accesses VM memory; a partially   *)
(* inlined callee frame lives entirely in SSA temporaries (§5.3.1).     *)
(* ------------------------------------------------------------------ *)

type frame_ops = {
  fo_func : Hhbc.Instr.func;
  fo_fid : int;
  fo_ldloc : Ir.block -> bcpc:int -> int -> tmp;
  fo_stloc : Ir.block -> bcpc:int -> int -> tmp -> unit;
  fo_ltype : int -> R.t;                    (* current known type *)
  fo_set_ltype : int -> R.t -> unit;
  fo_this : Ir.block -> bcpc:int -> tmp;
  (* side exit resuming interpretation at [pc] of THIS frame, given the
     current lowering state *)
  fo_exit : Ir.block -> bcpc:int -> pc:int -> lstate -> int;
  fo_ret : Ir.block -> bcpc:int -> tmp -> lstate -> unit;
  (* flush the symbolic stack to VM memory (no-op for inlined frames,
     whose eval stack lives entirely in registers) *)
  fo_flush : Ir.block -> bcpc:int -> lstate -> unit;
  fo_iters_ok : bool;
}

(** Successor resolution: where does control go when the block ends and
    bytecode execution would continue at [pc]? *)
type succ_resolver = Ir.block -> bcpc:int -> pc:int -> lstate -> int

(* ------------------------------------------------------------------ *)
(* The bytecode walker                                                 *)
(* ------------------------------------------------------------------ *)

(** Lower bytecode instructions [start, start+len) of [fr.fo_func] into IR
    block [b0], using symbolic state [st].  [succ] resolves continuations;
    [delta] is the static stack delta at block entry (outer frame only).
    Returns unit; the block always ends with a terminal. *)
let rec lower_bc env (b0 : Ir.block) (st : lstate) ~(fr : frame_ops)
    ~(delta : int) ~(ty_of_depth : int -> R.t) ~(succ : succ_resolver)
    ~(start : int) ~(len : int) : unit =
  let code = fr.fo_func.fn_body in
  let b = ref b0 in
  let finished = ref false in
  let pc = ref start in
  let fin = start + len in
  (* pop with entry-slot materialization *)
  let popv ~bcpc () = pop env !b ~bcpc ~delta ~ty_of_depth st in
  let pushv t = push st t in
  (* generic conversion of a tmp to machine bool *)
  let to_bool ~bcpc (v : tmp) : tmp =
    if R.subtype v.t_ty R.bool then v
    else if R.is_specific v.t_ty then
      emitd env !b ~bcpc ConvToBool [ v ] R.bool
    else emitd env !b ~bcpc (GenUnop CastBool) [ v ] R.bool
  in
  (* close the current block jumping to bytecode pc *)
  let goto ~bcpc (target_pc : int) =
    fr.fo_flush !b ~bcpc st;
    let t = succ !b ~bcpc ~pc:target_pc st in
    emit0 env !b ~bcpc ~taken:t Jmp [];
    finished := true
  in
  (* punt: re-execute the current instruction in the interpreter.  Goes
     through fo_exit (an interp-forcing side exit, or an inline exit for
     inlined frames) rather than successor resolution, so compiled code is
     never re-entered at the same point without progress. *)
  let punt ~bcpc () =
    fr.fo_flush !b ~bcpc st;
    let ex = fr.fo_exit !b ~bcpc ~pc:bcpc st in
    emit0 env !b ~bcpc ~taken:ex Jmp [];
    finished := true
  in
  let branch ~bcpc op (cond : tmp) (target_pc : int) (fall_pc : int) =
    fr.fo_flush !b ~bcpc st;
    let t = succ !b ~bcpc ~pc:target_pc st in
    emit0 env !b ~bcpc ~taken:t op [ cond ];
    goto ~bcpc fall_pc
  in
  while not !finished do
    if !pc >= fin then begin
      (* fell off the block: continue at the next bytecode pc *)
      goto ~bcpc:!pc !pc
    end else begin
      let bcpc = !pc in
      let i = code.(bcpc) in
      (match i with
       | Int n -> pushv (emitd env !b ~bcpc (ConstInt n) [] R.int)
       | Dbl d -> pushv (emitd env !b ~bcpc (ConstDbl d) [] R.dbl)
       | String s -> pushv (emitd env !b ~bcpc (ConstStr s) [] R.sstr)
       | True -> pushv (emitd env !b ~bcpc (ConstBool true) [] R.bool)
       | False -> pushv (emitd env !b ~bcpc (ConstBool false) [] R.bool)
       | Null -> pushv (emitd env !b ~bcpc ConstNull [] R.init_null)
       | NewArray -> pushv (emitd env !b ~bcpc NewArr [] R.packed_arr)
       | AddNewElemC ->
         let v = popv ~bcpc () in
         let a = popv ~bcpc () in
         let keep_packed = R.subtype a.t_ty R.packed_arr in
         pushv (emitd env !b ~bcpc ArrAppend [ a; v ]
                  (if keep_packed then R.packed_arr else R.make R.b_arr))
       | AddElemC ->
         let v = popv ~bcpc () in
         let k = popv ~bcpc () in
         let a = popv ~bcpc () in
         let r = emitd env !b ~bcpc ArrSet [ a; k; v ] (R.make R.b_arr) in
         decref env !b ~bcpc k;
         pushv r
       | CGetL l ->
         let ty = fr.fo_ltype l in
         if R.subtype ty R.uninit then
           (* always-uninit read: fatal at runtime; punt to the interpreter *)
           punt ~bcpc ()
         else begin
           let ty' = R.meet ty R.init_cell in
           let ty' = if R.is_bottom ty' then R.init_cell else ty' in
           let v = fr.fo_ldloc !b ~bcpc l in
           let v =
             if R.maybe_uninit v.t_ty then begin
               (* re-enter the interpreter if actually uninit (rare) *)
               let ex = fr.fo_exit !b ~bcpc ~pc:bcpc st in
               emitd env !b ~bcpc ~taken:ex CheckType [ v ] ty'
             end else v
           in
           incref env !b ~bcpc v;
           pushv v
         end
       | PushL l ->
         let v = fr.fo_ldloc !b ~bcpc l in
         let u = emitd env !b ~bcpc ConstUninit [] R.uninit in
         fr.fo_stloc !b ~bcpc l u;
         fr.fo_set_ltype l R.uninit;
         pushv v
       | SetL l ->
         let v = match st.stack with
           | v :: _ -> v
           | [] -> let v = popv ~bcpc () in pushv v; v
         in
         incref env !b ~bcpc v;
         let old = fr.fo_ldloc !b ~bcpc l in
         fr.fo_stloc !b ~bcpc l v;
         fr.fo_set_ltype l v.t_ty;
         decref env !b ~bcpc old
       | PopC ->
         let v = popv ~bcpc () in
         decref env !b ~bcpc v
       | Dup ->
         let v = popv ~bcpc () in
         incref env !b ~bcpc v;
         pushv v; pushv v
       | IncDecL (l, op) ->
         let ty = fr.fo_ltype l in
         let one_more ~bcpc v =
           if R.subtype v.t_ty R.int then
             let one = emitd env !b ~bcpc (ConstInt 1) [] R.int in
             emitd env !b ~bcpc
               (match op with PostInc | PreInc -> AddInt | _ -> SubInt)
               [ v; one ] R.int
           else
             let one = emitd env !b ~bcpc (ConstDbl 1.0) [] R.dbl in
             emitd env !b ~bcpc
               (match op with PostInc | PreInc -> AddDbl | _ -> SubDbl)
               [ v; one ] R.dbl
         in
         if R.subtype ty R.int || R.subtype ty R.dbl then begin
           let v = fr.fo_ldloc !b ~bcpc l in
           let nv = one_more ~bcpc v in
           fr.fo_stloc !b ~bcpc l nv;
           fr.fo_set_ltype l nv.t_ty;
           pushv (match op with PostInc | PostDec -> v | _ -> nv)
         end
         else if R.subtype ty R.init_null then begin
           (* null++ -> 1 ; null-- stays null *)
           let nv = match op with
             | PostInc | PreInc -> emitd env !b ~bcpc (ConstInt 1) [] R.int
             | _ -> emitd env !b ~bcpc ConstNull [] R.init_null
           in
           let old = emitd env !b ~bcpc ConstNull [] R.init_null in
           fr.fo_stloc !b ~bcpc l nv;
           fr.fo_set_ltype l nv.t_ty;
           pushv (match op with PostInc | PostDec -> old | _ -> nv)
         end
         else
           (* unspecialized inc/dec: punt *)
           punt ~bcpc ()
       | IssetL l ->
         let ty = fr.fo_ltype l in
         if R.subtype ty R.null then
           pushv (emitd env !b ~bcpc (ConstBool false) [] R.bool)
         else if not (R.maybe_uninit ty)
              && R.is_bottom (R.meet ty R.init_null) then
           pushv (emitd env !b ~bcpc (ConstBool true) [] R.bool)
         else begin
           let v = fr.fo_ldloc !b ~bcpc l in
           pushv (emitd env !b ~bcpc IssetVal [ v ] R.bool)
         end
       | UnsetL l ->
         let old = fr.fo_ldloc !b ~bcpc l in
         let u = emitd env !b ~bcpc ConstUninit [] R.uninit in
         fr.fo_stloc !b ~bcpc l u;
         fr.fo_set_ltype l R.uninit;
         decref env !b ~bcpc old
       | Binop bop ->
         let rhs = popv ~bcpc () in
         let lhs = popv ~bcpc () in
         let r = lower_binop env b st ~bcpc ~fr ~delta ~ty_of_depth bop lhs rhs in
         decref env !b ~bcpc lhs;
         decref env !b ~bcpc rhs;
         pushv r
       | Unop Not ->
         let v = popv ~bcpc () in
         let bl = to_bool ~bcpc v in
         decref env !b ~bcpc v;
         pushv (emitd env !b ~bcpc NotBool [ bl ] R.bool)
       | Unop Neg ->
         let v = popv ~bcpc () in
         if R.subtype v.t_ty R.int then
           pushv (emitd env !b ~bcpc NegInt [ v ] R.int)
         else if R.subtype v.t_ty R.dbl then
           pushv (emitd env !b ~bcpc NegDbl [ v ] R.dbl)
         else begin
           (* not 0 - v, which loses the sign of -0.0 *)
           let r = emitd env !b ~bcpc (GenUnop Neg) [ v ] R.num in
           decref env !b ~bcpc v;
           pushv r
         end
       | Unop BitNot ->
         let v = popv ~bcpc () in
         let vi = if R.subtype v.t_ty R.int then v
           else emitd env !b ~bcpc ConvToInt [ v ] R.int in
         decref env !b ~bcpc v;
         let m1 = emitd env !b ~bcpc (ConstInt (-1)) [] R.int in
         pushv (emitd env !b ~bcpc XorInt [ vi; m1 ] R.int)
       | Unop CastInt ->
         let v = popv ~bcpc () in
         let r = if R.subtype v.t_ty R.int then v
           else emitd env !b ~bcpc ConvToInt [ v ] R.int in
         if r != v then decref env !b ~bcpc v;
         pushv r
       | Unop CastDbl ->
         let v = popv ~bcpc () in
         let r = if R.subtype v.t_ty R.dbl then v
           else if R.subtype v.t_ty R.int then
             emitd env !b ~bcpc CvtIntToDbl [ v ] R.dbl
           else emitd env !b ~bcpc ConvToDbl [ v ] R.dbl in
         if r != v then decref env !b ~bcpc v;
         pushv r
       | Unop CastBool ->
         let v = popv ~bcpc () in
         let r = to_bool ~bcpc v in
         if r != v then decref env !b ~bcpc v;
         pushv r
       | Unop CastString ->
         let v = popv ~bcpc () in
         if R.subtype v.t_ty R.str then pushv v
         else begin
           let r = emitd env !b ~bcpc ConvToStr [ v ] R.cstr in
           decref env !b ~bcpc v;
           pushv r
         end
       | InstanceOf cname ->
         let v = popv ~bcpc () in
         let r =
           if R.subtype v.t_ty R.obj then
             emitd env !b ~bcpc (InstanceOfBits cname) [ v ] R.bool
           else if R.not_counted v.t_ty
                && R.is_bottom (R.meet v.t_ty R.obj) then
             emitd env !b ~bcpc (ConstBool false) [] R.bool
           else
             emitd env !b ~bcpc (InstanceOfGen cname) [ v ] R.bool
         in
         decref env !b ~bcpc v;
         pushv r
       | This ->
         let t = fr.fo_this !b ~bcpc in
         incref env !b ~bcpc t;
         pushv t
       | QueryM_Elem ->
         let k = popv ~bcpc () in
         let base = popv ~bcpc () in
         let op =
           if R.subtype base.t_ty R.packed_arr && R.subtype k.t_ty R.int
           then ArrGetPacked else ArrGet
         in
         let r = emitd env !b ~bcpc op [ base; k ] R.init_cell in
         decref env !b ~bcpc base;
         decref env !b ~bcpc k;
         pushv r
       | QueryM_Prop p ->
         let base = popv ~bcpc () in
         (match slot_of env base.t_ty p with
          | Some slot ->
            let raw = emitd env !b ~bcpc (LdProp slot) [ base ] R.init_cell in
            incref env !b ~bcpc raw;
            decref env !b ~bcpc base;
            pushv raw
          | None ->
            let r = emitd env !b ~bcpc (LdPropGen p) [ base ] R.init_cell in
            decref env !b ~bcpc base;
            pushv r)
       | SetM_ElemL l | SetM_NewElemL l | UnsetM_ElemL l ->
         lower_elem_write env b st ~bcpc ~fr ~delta ~ty_of_depth i l
       | SetM_Prop p ->
         let v = popv ~bcpc () in
         let base = popv ~bcpc () in
         (match slot_of env base.t_ty p with
          | Some slot ->
            incref env !b ~bcpc v;
            let old = emitd env !b ~bcpc (LdProp slot) [ base ] R.init_cell in
            emit0 env !b ~bcpc (StPropRaw slot) [ base; v ];
            decref env !b ~bcpc old;
            decref env !b ~bcpc base;
            pushv v
          | None ->
            emit0 env !b ~bcpc (StPropGen p) [ base; v ];
            decref env !b ~bcpc base;
            pushv v)
       | IncDecM_Prop (p, op) ->
         let base = popv ~bcpc () in
         (match slot_of env base.t_ty p with
          | Some slot ->
            let r =
              emitd env !b ~bcpc (IncDecProp (slot, op)) [ base ]
                (Hhbc.Optype.incdec_prop op)
            in
            decref env !b ~bcpc base;
            pushv r
          | None ->
            (* the interpreter re-executes it with its base on the stack *)
            pushv base;
            punt ~bcpc ())
       | IssetM_Elem ->
         let k = popv ~bcpc () in
         let base = popv ~bcpc () in
         let r = emitd env !b ~bcpc ArrIsset [ base; k ] R.bool in
         decref env !b ~bcpc base;
         decref env !b ~bcpc k;
         pushv r
       | IssetM_Prop p ->
         let base = popv ~bcpc () in
         (match slot_of env base.t_ty p with
          | Some slot ->
            let raw = emitd env !b ~bcpc (LdProp slot) [ base ] R.init_cell in
            let r = emitd env !b ~bcpc IssetVal [ raw ] R.bool in
            decref env !b ~bcpc base;
            pushv r
          | None ->
            let r = emitd env !b ~bcpc (IssetPropGen p) [ base ] R.bool in
            decref env !b ~bcpc base;
            pushv r)
       | Print ->
         let v = popv ~bcpc () in
         if R.subtype v.t_ty R.str then emit0 env !b ~bcpc PrintStr [ v ]
         else if R.subtype v.t_ty R.int then emit0 env !b ~bcpc PrintInt [ v ]
         else if R.is_specific v.t_ty then begin
           let s = emitd env !b ~bcpc ConvToStr [ v ] R.cstr in
           emit0 env !b ~bcpc PrintStr [ s ];
           decref env !b ~bcpc s
         end else emit0 env !b ~bcpc GenPrint [ v ];
         decref env !b ~bcpc v
       | AssertRATL (l, t) ->
         fr.fo_set_ltype l (let m = R.meet (fr.fo_ltype l) t in
                            if R.is_bottom m then t else m)
       | AssertRATStk (off, t) ->
         (match List.nth_opt st.stack off with
          | Some v ->
            let m = R.meet v.t_ty t in
            if not (R.is_bottom m) then
              st.stack <-
                List.mapi
                  (fun j s ->
                     if j = off then
                       (* refine without a check: static knowledge *)
                       { s with t_ty = m }
                     else s)
                  st.stack
          | None -> ())
       | Nop -> ()
       (* ---- control flow: ends the block ---- *)
       | Jmp t -> goto ~bcpc t
       | JmpZ t ->
         let v = popv ~bcpc () in
         let c = to_bool ~bcpc v in
         decref env !b ~bcpc v;
         branch ~bcpc JmpZero c t (bcpc + 1)
       | JmpNZ t ->
         let v = popv ~bcpc () in
         let c = to_bool ~bcpc v in
         decref env !b ~bcpc v;
         branch ~bcpc JmpNZero c t (bcpc + 1)
       | RetC ->
         let v = popv ~bcpc () in
         fr.fo_ret !b ~bcpc v st;
         finished := true
       | Throw ->
         (* re-execute in the interpreter: it owns unwinding *)
         punt ~bcpc ()
       | IterInit (id, done_t) when fr.fo_iters_ok ->
         let a = popv ~bcpc () in
         let has = emitd env !b ~bcpc (IterInitH id) [ a ] R.bool in
         branch ~bcpc JmpZero has done_t (bcpc + 1)
       | IterNext (id, loop_t) when fr.fo_iters_ok ->
         let more = emitd env !b ~bcpc (IterNextH id) [] R.bool in
         branch ~bcpc JmpNZero more loop_t (bcpc + 1)
       | IterKV (id, kloc, vloc) when fr.fo_iters_ok ->
         emit0 env !b ~bcpc (IterKVH (id, kloc, vloc)) [];
         (match kloc with
          | Some kl -> fr.fo_set_ltype kl (R.join R.int R.sstr)
          | None -> ());
         fr.fo_set_ltype vloc R.init_cell
       | IterFree id when fr.fo_iters_ok ->
         emit0 env !b ~bcpc (IterFreeH id) []
       | IterInit _ | IterNext _ | IterKV _ | IterFree _ ->
         punt ~bcpc ()   (* iterators need a real frame: punt *)
       (* ---- calls: end the block ---- *)
       | FCall (fid, n) ->
         let args = pop_args ~bcpc env b st ~delta ~ty_of_depth n in
         lower_call env b st ~bcpc ~fr ~delta ~ty_of_depth ~succ
           ~fid ~args ~this_:None ~ret_pc:(bcpc + 1);
         finished := true
       | FCallBuiltin (name, n) ->
         let args = pop_args ~bcpc env b st ~delta ~ty_of_depth n in
         let rty = Hhbc.Optype.builtin name in
         let r = emitd env !b ~bcpc (CallBuiltin name) args rty in
         List.iter (fun a -> decref env !b ~bcpc a) args;
         pushv r
       | FCallM (mname, n) ->
         let args = pop_args ~bcpc env b st ~delta ~ty_of_depth n in
         let recv = popv ~bcpc () in
         lower_method_call env b st ~bcpc ~fr ~delta ~ty_of_depth ~succ
           ~mname ~recv ~args ~ret_pc:(bcpc + 1);
         finished := true
       | NewObjD (cname, n) ->
         let args = pop_args ~bcpc env b st ~delta ~ty_of_depth n in
         (match env.mode with
          | Profiling ->
            (match Runtime.Vclass.find_opt cname with
             | Some c ->
               (match c.c_ctor with
                | Some ctor -> emit0 env !b ~bcpc (ProfCallEdge ctor) []
                | None -> ())
             | None -> ())
          | _ -> ());
         fr.fo_flush !b ~bcpc st;
         let ci, r = emitc env !b ~bcpc (CallCtor cname) args (R.obj_exact cname) in
         record_fixup env ci ~bcpc ~delta st;
         pushv r;
         goto ~bcpc (bcpc + 1))
      ;
      if not !finished then pc := bcpc + 1
    end
  done

and pop_args ~bcpc env b st ~delta ~ty_of_depth n : tmp list =
  (* args were pushed left-to-right: top of stack is the last arg *)
  let rec go n acc =
    if n = 0 then acc
    else
      let a = pop env !b ~bcpc ~delta ~ty_of_depth st in
      go (n - 1) (a :: acc)
  in
  go n []

and slot_of env (ty : R.t) (prop : string) : int option =
  ignore env;
  match ty with
  | { R.bits; cls = R.CExact cname; _ } when bits = R.b_obj ->
    (match Runtime.Vclass.find_opt cname with
     | Some c ->
       let slot = Runtime.Vclass.slot_of_name c prop in
       if slot >= 0 then Some slot else None
     | None -> None)
  | _ -> None

and lower_binop env b st ~bcpc ~fr ~delta ~ty_of_depth
    (bop : Hhbc.Instr.binop) (a : tmp) (c : tmp) : tmp =
  ignore st; ignore fr; ignore delta; ignore ty_of_depth;
  let ib = !b in
  let both_int = R.subtype a.t_ty R.int && R.subtype c.t_ty R.int in
  let num_ty t = R.subtype t R.num in
  let as_dbl (v : tmp) : tmp =
    if R.subtype v.t_ty R.dbl then v
    else emitd env ib ~bcpc CvtIntToDbl [ v ] R.dbl
  in
  let both_num = num_ty a.t_ty && num_ty c.t_ty
                 && R.is_specific a.t_ty && R.is_specific c.t_ty in
  let cmp_of = function
    | OpEq | OpSame -> Ceq | OpNeq | OpNSame -> Cne
    | OpLt -> Clt | OpLte -> Cle | OpGt -> Cgt | OpGte -> Cge
    | _ -> assert false
  in
  match bop with
  | OpAdd | OpSub | OpMul ->
    let iop = match bop with OpAdd -> AddInt | OpSub -> SubInt | _ -> MulInt in
    let dop = match bop with OpAdd -> AddDbl | OpSub -> SubDbl | _ -> MulDbl in
    if both_int then emitd env ib ~bcpc iop [ a; c ] R.int
    else if both_num then emitd env ib ~bcpc dop [ as_dbl a; as_dbl c ] R.dbl
    else emitd env ib ~bcpc (GenBinop bop) [ a; c ] R.num
  | OpDiv ->
    if (R.subtype a.t_ty R.dbl || R.subtype c.t_ty R.dbl) && both_num then
      emitd env ib ~bcpc DivDbl [ as_dbl a; as_dbl c ] R.dbl
    else emitd env ib ~bcpc (GenBinop OpDiv) [ a; c ] R.num
  | OpMod ->
    if both_int then emitd env ib ~bcpc ModInt [ a; c ] R.int
    else emitd env ib ~bcpc (GenBinop OpMod) [ a; c ] R.int
  | OpConcat ->
    let as_str (v : tmp) : tmp option =
      if R.subtype v.t_ty R.str then Some v
      else if R.is_specific v.t_ty && R.not_counted v.t_ty then
        Some (emitd env ib ~bcpc ConvToStr [ v ] R.cstr)
      else None
    in
    (match as_str a, as_str c with
     | Some sa, Some sc ->
       let r = emitd env ib ~bcpc ConcatStr [ sa; sc ] R.cstr in
       (* temporaries created by ConvToStr die here *)
       if sa != a then decref env ib ~bcpc sa;
       if sc != c then decref env ib ~bcpc sc;
       r
     | _ -> emitd env ib ~bcpc (GenBinop OpConcat) [ a; c ] R.cstr)
  | OpEq | OpNeq | OpLt | OpLte | OpGt | OpGte ->
    if both_int then emitd env ib ~bcpc (CmpInt (cmp_of bop)) [ a; c ] R.bool
    else if both_num then
      emitd env ib ~bcpc (CmpDbl (cmp_of bop)) [ as_dbl a; as_dbl c ] R.bool
    else if R.subtype a.t_ty R.str && R.subtype c.t_ty R.str then
      emitd env ib ~bcpc (CmpStr (cmp_of bop)) [ a; c ] R.bool
    else if R.subtype a.t_ty R.bool && R.subtype c.t_ty R.bool
         && (bop = OpEq || bop = OpNeq) then
      let r = emitd env ib ~bcpc EqBool [ a; c ] R.bool in
      if bop = OpNeq then emitd env ib ~bcpc NotBool [ r ] R.bool else r
    else emitd env ib ~bcpc (GenBinop bop) [ a; c ] R.bool
  | OpSame | OpNSame ->
    let specific t = R.is_specific t in
    if specific a.t_ty && specific c.t_ty
    && R.is_bottom (R.meet a.t_ty c.t_ty)
    && not (R.subtype a.t_ty R.str && R.subtype c.t_ty R.str) then
      (* different types: === is statically false *)
      emitd env ib ~bcpc (ConstBool (bop = OpNSame)) [] R.bool
    else if both_int then emitd env ib ~bcpc (CmpInt (cmp_of bop)) [ a; c ] R.bool
    else if R.subtype a.t_ty R.dbl && R.subtype c.t_ty R.dbl then
      emitd env ib ~bcpc (CmpDbl (cmp_of bop)) [ a; c ] R.bool
    else if R.subtype a.t_ty R.str && R.subtype c.t_ty R.str then
      emitd env ib ~bcpc (CmpStr (cmp_of bop)) [ a; c ] R.bool
    else emitd env ib ~bcpc (GenBinop bop) [ a; c ] R.bool
  | OpBitAnd | OpBitOr | OpBitXor | OpShl | OpShr ->
    let as_int (v : tmp) : tmp =
      if R.subtype v.t_ty R.int then v
      else emitd env ib ~bcpc ConvToInt [ v ] R.int
    in
    let iop = match bop with
      | OpBitAnd -> AndInt | OpBitOr -> OrInt | OpBitXor -> XorInt
      | OpShl -> ShlInt | _ -> ShrInt
    in
    emitd env ib ~bcpc iop [ as_int a; as_int c ] R.int

and lower_elem_write env b st ~bcpc ~fr ~delta ~ty_of_depth
    (i : Hhbc.Instr.t) (l : int) : unit =
  let popv () = pop env !b ~bcpc ~delta ~ty_of_depth st in
  let lty = fr.fo_ltype l in
  let load_base () : tmp =
    if R.subtype lty R.arr then fr.fo_ldloc !b ~bcpc l
    else if R.subtype lty R.uninit then emitd env !b ~bcpc NewArr [] R.packed_arr
    else fr.fo_ldloc !b ~bcpc l   (* helper raises the PHP fatal *)
  in
  match i with
  | SetM_ElemL _ ->
    let v = popv () in
    let k = popv () in
    let base = load_base () in
    incref env !b ~bcpc v;
    let a' = emitd env !b ~bcpc ArrSet [ base; k; v ] (R.make R.b_arr) in
    fr.fo_stloc !b ~bcpc l a';
    fr.fo_set_ltype l a'.t_ty;
    decref env !b ~bcpc k;
    push st v
  | SetM_NewElemL _ ->
    let v = popv () in
    let base = load_base () in
    incref env !b ~bcpc v;
    let keeps = R.subtype base.t_ty R.packed_arr in
    let a' = emitd env !b ~bcpc ArrAppend [ base; v ]
        (if keeps then R.packed_arr else R.make R.b_arr) in
    fr.fo_stloc !b ~bcpc l a';
    fr.fo_set_ltype l a'.t_ty;
    push st v
  | UnsetM_ElemL _ when R.subtype lty R.uninit ->
    (* an unset local stays unset, as in the interpreter *)
    decref env !b ~bcpc (popv ())
  | UnsetM_ElemL _ ->
    let k = popv () in
    let base = load_base () in
    let a' = emitd env !b ~bcpc ArrUnset [ base; k ] (R.make R.b_arr) in
    fr.fo_stloc !b ~bcpc l a';
    fr.fo_set_ltype l a'.t_ty;
    decref env !b ~bcpc k
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Calls: direct, method dispatch (§5.3.3), partial inlining (§5.3.1)  *)
(* ------------------------------------------------------------------ *)

and lower_call env b st ~bcpc ~fr ~delta ~ty_of_depth ~succ
    ~(fid : int) ~(args : tmp list) ~(this_ : tmp option) ~(ret_pc : int)
  : unit =
  ignore ty_of_depth;
  if env.mode = Profiling then emit0 env !b ~bcpc (ProfCallEdge fid) [];
  let inlined =
    env.mode = Optimized && env.opts.o_inline && st.inline = None
    && try_inline env b st ~bcpc ~delta ~fid ~args ~this_ ~ret_pc
  in
  if not inlined then begin
    fr.fo_flush !b ~bcpc st;
    let ci, r = match this_ with
      | Some recv -> emitc env !b ~bcpc (CallPhpT fid) (recv :: args) R.init_cell
      | None -> emitc env !b ~bcpc (CallPhp fid) args R.init_cell
    in
    record_fixup env ci ~bcpc ~delta st;
    push st r;
    fr.fo_flush !b ~bcpc st;
    let t = succ !b ~bcpc ~pc:ret_pc st in
    emit0 env !b ~bcpc ~taken:t Jmp []
  end

and lower_method_call env b st ~bcpc ~fr ~delta ~ty_of_depth ~succ
    ~(mname : string) ~(recv : tmp) ~(args : tmp list) ~(ret_pc : int) : unit =
  (* reconstruct the pre-call stack for a side exit that re-executes the
     call bytecode in the interpreter *)
  let guard_exit () =
    let saved = st.stack in
    st.stack <- List.rev args @ (recv :: saved);
    let ex = fr.fo_exit !b ~bcpc ~pc:bcpc st in
    st.stack <- saved;
    ex
  in
  let finish fid =
    lower_call env b st ~bcpc ~fr ~delta ~ty_of_depth ~succ
      ~fid ~args ~this_:(Some recv) ~ret_pc
  in
  let finish_helper op =
    fr.fo_flush !b ~bcpc st;
    let ci, r = emitc env !b ~bcpc op (recv :: args) R.init_cell in
    record_fixup env ci ~bcpc ~delta st;
    push st r;
    fr.fo_flush !b ~bcpc st;
    let t = succ !b ~bcpc ~pc:ret_pc st in
    emit0 env !b ~bcpc ~taken:t Jmp []
  in
  let fallback () =
    if env.opts.o_inline_cache && env.mode <> Profiling then
      finish_helper (CallMethodCached (mname, new_cache_id env.u))
    else finish_helper (CallMethodSlow mname)
  in
  (* (a) receiver class statically known (Specialized guard): devirtualize
     with no runtime check at all *)
  let static_target =
    match recv.t_ty with
    | { R.bits; cls = R.CExact cname; _ } when bits = R.b_obj ->
      Option.bind (Runtime.Vclass.find_opt cname)
        (fun c -> Runtime.Vclass.lookup_method c mname)
    | _ -> None
  in
  match static_target with
  | Some m when env.mode <> Profiling -> finish m.Runtime.Vclass.m_func
  | _ ->
    (match env.mode with
     | Profiling ->
       Vm.Prof.record_method_target ~mname ~func:env.func_id ~pc:bcpc ~cls:(-1) ();
       emit0 env !b ~bcpc (ProfMethTarget (env.func_id, bcpc)) [ recv ];
       finish_helper (CallMethodSlow mname)
     | Live -> fallback ()
     | Optimized ->
       if not env.opts.o_method_dispatch then fallback ()
       else begin
         let dist = Vm.Prof.method_target_dist ~func:env.func_id ~pc:bcpc in
         let resolve cid =
           Runtime.Vclass.lookup_method (Runtime.Vclass.get cid) mname
         in
         match dist with
         | [] -> fallback ()
         | (cls0, _) :: rest ->
           let fids =
             List.filter_map
               (fun (c, _) ->
                  Option.map (fun m -> m.Runtime.Vclass.m_func) (resolve c))
               dist
           in
           (match fids with
            | fid0 :: others when List.for_all (( = ) fid0) others
                               && List.length fids = List.length dist ->
              if rest = [] then begin
                (* (b) monomorphic: devirtualize behind a class check *)
                let clsid = emitd env !b ~bcpc LdObjClass [ recv ] R.int in
                let want = emitd env !b ~bcpc (ConstInt cls0) [] R.int in
                let ok = emitd env !b ~bcpc (CmpInt Ceq) [ clsid; want ] R.bool in
                let ex = guard_exit () in
                emit0 env !b ~bcpc ~taken:ex JmpZero [ ok ];
                recv.t_ty <- R.obj_exact (Runtime.Vclass.get cls0).c_name;
                finish fid0
              end else begin
                (* (c) polymorphic but same implementation (common base /
                   interface): guard on the resolved target *)
                let ok = emitd env !b ~bcpc (CheckMethodFid (mname, fid0))
                    [ recv ] R.bool in
                let ex = guard_exit () in
                emit0 env !b ~bcpc ~taken:ex JmpZero [ ok ];
                finish fid0
              end
            | _ -> fallback ())
       end)

(** Attempt partial inlining of a call (§5.3.1).  The callee's profiled
    region is lowered directly into the caller's IR with the callee frame
    held entirely in SSA temporaries; side exits materialize the frame.
    Only tree-shaped, small, iterator-free callee regions are inlined
    (multi-predecessor callee blocks would need phis; HHVM's region former
    gives mostly tree-shaped callee regions for small callees too). *)
and try_inline env b st ~bcpc ~delta ~(fid : int) ~(args : tmp list)
    ~(this_ : tmp option) ~(ret_pc : int) : bool =
  let hunit = env.hunit in
  if fid < 0 || fid >= Hhbc.Hunit.num_funcs hunit then false
  else begin
    let callee = Hhbc.Hunit.func hunit fid in
    let nparams = Array.length callee.fn_params in
    let nargs = List.length args in
    let scalar_defaults =
      nargs >= nparams
      || (let ok = ref true in
          for i = nargs to nparams - 1 do
            match callee.fn_params.(i).pi_default with
            | Some (CArr _) | None -> ok := false
            | Some _ -> ()
          done;
          !ok)
    in
    if nargs > nparams || not scalar_defaults then false
    else match Region.Form.form_func_regions fid with
      | [] -> false
      | r0 :: _ ->
        let r0 = if env.opts.o_relax then Region.Relax.run r0 else r0 in
        let entryb = Region.Rdesc.entry r0 in
        if entryb.b_start <> 0 then false
        else begin
          (* keep only chain heads; alternates exit to the interpreter *)
          let next_tgts = List.map snd r0.r_chain_next in
          let heads =
            List.filter
              (fun (bb : Region.Rdesc.block) -> not (List.mem bb.b_id next_tgts))
              r0.r_blocks
          in
          let head_ids = List.map (fun (bb : Region.Rdesc.block) -> bb.b_id) heads in
          let arcs =
            List.filter (fun (s, d) -> List.mem s head_ids && List.mem d head_ids)
              r0.r_arcs
          in
          let pred_count d = List.length (List.filter (fun (_, d') -> d' = d) arcs) in
          let tree =
            List.for_all
              (fun (bb : Region.Rdesc.block) ->
                 let c = pred_count bb.b_id in
                 if bb.b_id = entryb.b_id then c = 0 else c <= 1)
              heads
          in
          let total = List.fold_left (fun a (bb : Region.Rdesc.block) -> a + bb.b_len) 0 heads in
          let has_iters =
            List.exists
              (fun (bb : Region.Rdesc.block) ->
                 let rec go i =
                   i < bb.b_start + bb.b_len
                   && (match callee.fn_body.(i) with
                       | IterInit _ | IterNext _ | IterKV _ | IterFree _ -> true
                       | _ -> go (i + 1))
                 in
                 go bb.b_start)
              heads
          in
          let this_ok = this_ <> None || callee.fn_cls = None in
          if (not tree)
          || List.length heads > max_inline_blocks
          || total > env.opts.o_max_inline_instrs
          || has_iters || not this_ok then false
          else begin
            (* ---------- commit ---------- *)
            let ret_slot = flush_stack env !b ~bcpc ~delta st in
            (* a side exit before entering the callee: re-execute the call *)
            let precall_exit () =
              let saved = st.stack in
              st.stack <-
                List.rev args
                @ (match this_ with Some t -> t :: saved | None -> saved);
              (* values were just flushed; exit stub re-stores them, which is
                 redundant but harmless *)
              let flushl, spd = pending_flush ~delta st in
              let ex = make_exit_stub env ~bcpc ~interp:true ~pc:bcpc ~spdelta:spd
                  ~flush:flushl ~inline:None () in
              st.stack <- saved;
              ex
            in
            (* parameter values, defaults, hint checks *)
            let in_locals : (int, tmp) Hashtbl.t = Hashtbl.create 8 in
            let argv = Array.of_list args in
            let ok = ref true in
            for i = 0 to nparams - 1 do
              if !ok then begin
                let v =
                  if i < nargs then argv.(i)
                  else
                    match callee.fn_params.(i).pi_default with
                    | Some CNull -> emitd env !b ~bcpc ConstNull [] R.init_null
                    | Some (CBool bv) -> emitd env !b ~bcpc (ConstBool bv) [] R.bool
                    | Some (CInt n) -> emitd env !b ~bcpc (ConstInt n) [] R.int
                    | Some (CDbl d) -> emitd env !b ~bcpc (ConstDbl d) [] R.dbl
                    | Some (CStr s) -> emitd env !b ~bcpc (ConstStr s) [] R.sstr
                    | _ -> assert false
                in
                let v =
                  match callee.fn_params.(i).pi_hint with
                  | None -> v
                  | Some h ->
                    let ht = R.of_hint h in
                    if R.subtype v.t_ty ht then v
                    else if R.is_bottom (R.meet v.t_ty ht) then begin
                      ok := false; v
                    end else begin
                      let ex = precall_exit () in
                      emitd env !b ~bcpc ~taken:ex CheckType [ v ]
                        (R.meet v.t_ty ht)
                    end
                in
                Hashtbl.replace in_locals i v
              end
            done;
            if not !ok then
              (* hint statically violated: the interpreter will raise the
                 fatal; just re-execute the call there *)
              (let ex = precall_exit () in
               emit0 env !b ~bcpc ~taken:ex Jmp [];
               true)
            else begin
              (* entry-block guards on parameters *)
              List.iter
                (fun (g : Region.Rdesc.guard) ->
                   match g.g_loc with
                   | Region.Rdesc.LLocal l ->
                     (match Hashtbl.find_opt in_locals l with
                      | Some v ->
                        if R.subtype v.t_ty g.g_type then ()
                        else if R.is_bottom (R.meet v.t_ty g.g_type) then begin
                          (* will never match: always exit (cold) *)
                          ()
                        end else begin
                          let ex = precall_exit () in
                          let v' = emitd env !b ~bcpc ~taken:ex CheckType [ v ]
                              (R.meet v.t_ty g.g_type) in
                          Hashtbl.replace in_locals l v'
                        end
                      | None -> ())
                   | Region.Rdesc.LStack _ -> ())
                entryb.b_preconds;
              (* the inline frame context *)
              let ic = { in_fid = fid; in_func = callee; in_this = this_;
                         in_locals; in_ret_pc = ret_pc; in_ret_slot = ret_slot } in
              (* caller continuation after an inlined return *)
              let caller_cont bq ~bcpc =
                ignore bq;
                match Hashtbl.find_opt env.chain_heads ret_pc with
                | Some (head :: _) -> Hashtbl.find env.blkmap head.Region.Rdesc.b_id
                | _ ->
                  make_exit_stub env ~bcpc ~pc:ret_pc ~spdelta:(ret_slot + 1)
                    ~flush:[] ~inline:None ()
              in
              (* lower the callee tree *)
              let blocks_by_id =
                List.map (fun (bb : Region.Rdesc.block) -> (bb.b_id, bb)) heads
              in
              let head_at pc =
                List.find_opt
                  (fun (bb : Region.Rdesc.block) -> bb.b_start = pc)
                  heads
              in
              let rec lower_callee_block (rb : Region.Rdesc.block)
                  (cst : lstate) (into : Ir.block) : unit =
                ignore (List.assoc rb.b_id blocks_by_id);
                let cb = ref into in
                let exit_inline bq ~bcpc ~callee_pc (xst : lstate) : int =
                  ignore bq;
                  let ie = { ie_fid = fid; ie_this = this_;
                             ie_locals = Hashtbl.fold (fun k v a -> (k, v) :: a)
                                 in_locals [];
                             ie_stack = List.rev xst.stack;
                             ie_pc = callee_pc } in
                  make_exit_stub env ~bcpc ~pc:ret_pc ~spdelta:ret_slot
                    ~flush:[] ~inline:(Some ie) ()
                in
                (* inline guards for non-entry callee blocks *)
                if rb.b_id <> entryb.b_id then
                  List.iter
                    (fun (g : Region.Rdesc.guard) ->
                       let refine (v : tmp) (set : tmp -> unit) =
                         if R.subtype v.t_ty g.g_type then ()
                         else begin
                           let m = R.meet v.t_ty g.g_type in
                           let m = if R.is_bottom m then g.g_type else m in
                           let ex = exit_inline !cb ~bcpc:rb.b_start
                               ~callee_pc:rb.b_start cst in
                           let v' = emitd env !cb ~bcpc:rb.b_start ~taken:ex
                               CheckType [ v ] m in
                           set v'
                         end
                       in
                       match g.g_loc with
                       | Region.Rdesc.LLocal l ->
                         (match Hashtbl.find_opt in_locals l with
                          | Some v -> refine v (Hashtbl.replace in_locals l)
                          | None -> ())
                       | Region.Rdesc.LStack d ->
                         (match List.nth_opt cst.stack d with
                          | Some v ->
                            refine v (fun v' ->
                                cst.stack <-
                                  List.mapi (fun j s -> if j = d then v' else s)
                                    cst.stack)
                          | None -> ()))
                    rb.b_preconds;
                let fo = {
                  fo_func = callee;
                  fo_fid = fid;
                  fo_ldloc = (fun bq ~bcpc l ->
                      match Hashtbl.find_opt in_locals l with
                      | Some t -> t
                      | None -> emitd env bq ~bcpc ConstUninit [] R.uninit);
                  fo_stloc = (fun _bq ~bcpc:_ l t ->
                      Hashtbl.replace in_locals l t);
                  fo_ltype = (fun l ->
                      match Hashtbl.find_opt in_locals l with
                      | Some t -> t.t_ty
                      | None -> R.uninit);
                  fo_set_ltype = (fun _ _ -> ());
                  fo_this = (fun _bq ~bcpc:_ ->
                      match this_ with
                      | Some t -> t
                      | None -> err "inlined $this outside method");
                  fo_exit = (fun bq ~bcpc ~pc xst ->
                      exit_inline bq ~bcpc ~callee_pc:pc xst);
                  fo_ret = (fun bq ~bcpc v xst ->
                      ignore xst;
                      Hashtbl.iter (fun _ t -> decref env bq ~bcpc t) in_locals;
                      (match this_ with
                       | Some t -> decref env bq ~bcpc t
                       | None -> ());
                      emit0 env bq ~bcpc (StStk ret_slot) [ v ];
                      let t = caller_cont bq ~bcpc in
                      emit0 env bq ~bcpc ~taken:t Jmp []);
                  fo_flush = (fun _ ~bcpc:_ _ -> ());
                  fo_iters_ok = false;
                } in
                let csucc bq ~bcpc ~pc (xst : lstate) : int =
                  match head_at pc with
                  | Some nb ->
                    (* continue into the next callee block with a cloned
                       state (branches must not share mutable state) *)
                    let nblock = new_block env.u in
                    let nst = { stack = xst.stack; consumed = 0;
                                ltypes = Hashtbl.create 4;
                                inline = Some ic } in
                    lower_callee_block nb nst nblock;
                    nblock.b_id
                  | None -> exit_inline bq ~bcpc ~callee_pc:pc xst
                in
                lower_bc env !cb cst ~fr:fo ~delta:0
                  ~ty_of_depth:(fun _ -> R.init_cell)
                  ~succ:csucc ~start:rb.b_start ~len:rb.b_len
              in
              let entry_ir = new_block env.u in
              emit0 env !b ~bcpc ~taken:entry_ir.b_id Jmp [];
              let cst0 = { stack = []; consumed = 0;
                           ltypes = Hashtbl.create 4; inline = Some ic } in
              lower_callee_block entryb cst0 entry_ir;
              true
            end
          end
        end
  end

(* ------------------------------------------------------------------ *)
(* Region assembly                                                     *)
(* ------------------------------------------------------------------ *)

type lowered = {
  lw_ir : Ir.t;
  (* the region-entry retranslation chain: the engine checks each member's
     preconditions against live VM state and enters at the first match *)
  lw_entries : (Region.Rdesc.block * int) list;
  (* region block id -> IR block id, for weighting layout from profiles *)
  lw_blockmap : (int * int) list;
}

(** Compute each block's static eval-stack delta relative to region entry. *)
let compute_deltas (region : Region.Rdesc.t) : (int, int) Hashtbl.t =
  let deltas = Hashtbl.create 8 in
  let entry = Region.Rdesc.entry region in
  (* retranslation siblings share their pc and hence their depth *)
  let by_start = Hashtbl.create 8 in
  List.iter
    (fun (b : Region.Rdesc.block) ->
       Hashtbl.replace by_start b.b_start
         (b :: Option.value (Hashtbl.find_opt by_start b.b_start) ~default:[]))
    region.r_blocks;
  let set_start_delta start d =
    List.iter
      (fun (b : Region.Rdesc.block) ->
         if not (Hashtbl.mem deltas b.b_id) then Hashtbl.replace deltas b.b_id d)
      (Option.value (Hashtbl.find_opt by_start start) ~default:[])
  in
  set_start_delta entry.b_start 0;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (s, d) ->
         match Hashtbl.find_opt deltas s with
         | Some ds ->
           let sb = Region.Rdesc.find_block region s in
           let dd = ds + sb.b_exit_sp in
           let db = Region.Rdesc.find_block region d in
           if not (Hashtbl.mem deltas db.b_id) then begin
             set_start_delta db.b_start dd;
             changed := true
           end
         | None -> ())
      region.r_arcs
  done;
  (* anything unreached: assume depth 0 (it will only be entered via exits
     that re-check anyway) *)
  List.iter
    (fun (b : Region.Rdesc.block) ->
       if not (Hashtbl.mem deltas b.b_id) then Hashtbl.replace deltas b.b_id 0)
    region.r_blocks;
  deltas

(** Order the retranslation chain for each start pc: heads first, following
    the chain-next links. *)
let compute_chains (region : Region.Rdesc.t)
  : (int, int) Hashtbl.t * (int, Region.Rdesc.block list) Hashtbl.t =
  let chain_next = Hashtbl.create 8 in
  List.iter (fun (a, b) -> Hashtbl.replace chain_next a b) region.r_chain_next;
  let next_tgts = List.map snd region.r_chain_next in
  let chain_heads = Hashtbl.create 8 in
  List.iter
    (fun (b : Region.Rdesc.block) ->
       if not (List.mem b.b_id next_tgts) then begin
         (* walk the chain from this head *)
         let rec walk id acc =
           let bb = Region.Rdesc.find_block region id in
           match Hashtbl.find_opt chain_next id with
           | Some nxt -> walk nxt (bb :: acc)
           | None -> List.rev (bb :: acc)
         in
         Hashtbl.replace chain_heads b.b_start (walk b.b_id [])
       end)
    region.r_blocks;
  (chain_next, chain_heads)

(** Incoming type knowledge for a chain-head block: the join of all
    intra-region predecessors' postconditions (guard elision, the payoff of
    regions over tracelets).  A jump to a bytecode pc enters that pc's
    chain head whichever block of the chain its arc names, so every arc
    into a block starting at the head's pc counts. *)
let incoming_knowledge (region : Region.Rdesc.t) (rb : Region.Rdesc.block)
  : (Region.Rdesc.loc, R.t) Hashtbl.t option =
  let preds =
    List.filter_map
      (fun (s, d) ->
         if (Region.Rdesc.find_block region d).b_start = rb.b_start then
           Some (Region.Rdesc.find_block region s)
         else None)
      region.r_arcs
  in
  if preds = [] then None
  else begin
    let tbl = Hashtbl.create 8 in
    (* start from the first pred's postconds, then join/strike *)
    List.iteri
      (fun i (p : Region.Rdesc.block) ->
         if i = 0 then
           List.iter (fun (l, t) -> Hashtbl.replace tbl l t) p.b_postconds
         else begin
           let keep = Hashtbl.create 8 in
           List.iter
             (fun (l, t) ->
                match Hashtbl.find_opt tbl l with
                | Some t0 -> Hashtbl.replace keep l (R.join t0 t)
                | None -> ())
             p.b_postconds;
           Hashtbl.reset tbl;
           Hashtbl.iter (fun l t -> Hashtbl.replace tbl l t) keep
         end)
      preds;
    Some tbl
  end

let lower_region (hunit : Hhbc.Hunit.t) ~(func_id : int)
    ~(region : Region.Rdesc.t) ~(mode : mode) ~(opts : options) : lowered =
  let func = Hhbc.Hunit.func hunit func_id in
  let u = Ir.create hunit func in
  let deltas = compute_deltas region in
  let chain_next, chain_heads = compute_chains region in
  let blkmap = Hashtbl.create 8 in
  let env = { u; hunit; func; func_id; region; mode; opts;
              blkmap; deltas; chain_next; chain_heads } in
  (* create an IR block per region block, entry first *)
  List.iter
    (fun (rb : Region.Rdesc.block) ->
       let ib = new_block u in
       Hashtbl.replace blkmap rb.b_id ib.b_id)
    region.r_blocks;
  let entry_rb = Region.Rdesc.entry region in
  u.entry <- Hashtbl.find blkmap entry_rb.b_id;
  let entry_pc = entry_rb.b_start in
  (* a loop header: intra-region arcs re-enter the entry pc.  The engine
     only validates preconditions on external entry, so the entry chain
     must emit its guards inline for the backedge path. *)
  let entry_has_preds =
    List.exists
      (fun (_, d) ->
         (Region.Rdesc.find_block region d).b_start = entry_pc)
      region.r_arcs
  in
  (* lower every region block *)
  List.iter
    (fun (rb : Region.Rdesc.block) ->
       let ib = Ir.block u (Hashtbl.find blkmap rb.b_id) in
       let delta = Hashtbl.find deltas rb.b_id in
       let engine_checked = rb.b_start = entry_pc && not entry_has_preds in
       let is_head =
         match Hashtbl.find_opt chain_heads rb.b_start with
         | Some (h :: _) -> h.b_id = rb.b_id
         | _ -> false
       in
       let ltypes : (int, R.t) Hashtbl.t = Hashtbl.create 8 in
       let stack_types : (int, R.t) Hashtbl.t = Hashtbl.create 4 in
       let st = { stack = []; consumed = 0; ltypes; inline = None } in
       let record (l : Region.Rdesc.loc) (t : R.t) =
         match l with
         | Region.Rdesc.LLocal i -> Hashtbl.replace ltypes i t
         | Region.Rdesc.LStack d -> Hashtbl.replace stack_types d t
       in
       (* incoming knowledge (only safe for heads reached by arcs) *)
       let incoming =
         if engine_checked || not is_head then None
         else incoming_knowledge region rb
       in
       (match incoming with
        | Some tbl -> Hashtbl.iter (fun l t -> record l t) tbl
        | None -> ());
       (* guards *)
       let fail_target () : int =
         match Hashtbl.find_opt chain_next rb.b_id with
         | Some sib -> Hashtbl.find blkmap sib
         | None ->
           make_exit_stub env ~bcpc:rb.b_start ~pc:rb.b_start ~spdelta:delta
             ~flush:[] ~inline:None ()
       in
       List.iter
         (fun (g : Region.Rdesc.guard) ->
            if engine_checked then record g.g_loc g.g_type
            else begin
              let implied =
                match incoming with
                | Some tbl ->
                  (match Hashtbl.find_opt tbl g.g_loc with
                   | Some t -> R.subtype t g.g_type
                   | None -> false)
                | None -> false
              in
              if implied then
                record g.g_loc
                  (match incoming with
                   | Some tbl -> Hashtbl.find tbl g.g_loc
                   | None -> g.g_type)
              else begin
                let tk = fail_target () in
                (match g.g_loc with
                 | Region.Rdesc.LLocal l ->
                   ignore (emitd env ib ~bcpc:rb.b_start ~taken:tk
                             (CheckLoc l) [] g.g_type)
                 | Region.Rdesc.LStack d ->
                   ignore (emitd env ib ~bcpc:rb.b_start ~taken:tk
                             (CheckStk (entry_slot ~delta d)) [] g.g_type));
                record g.g_loc g.g_type
              end
            end)
         rb.b_preconds;
       (* profiling counter after the guards (§4.1 item 3) *)
       (match mode, rb.b_counter with
        | Profiling, Some c -> emit0 env ib ~bcpc:rb.b_start (Counter c) []
        | _ -> ());
       (* frame ops for the outer frame *)
       let fr = {
         fo_func = func;
         fo_fid = func_id;
         fo_ldloc = (fun bq ~bcpc l ->
             let ty =
               match Hashtbl.find_opt ltypes l with
               | Some t -> t
               | None -> R.cell
             in
             emitd env bq ~bcpc (LdLoc l) [] ty);
         fo_stloc = (fun bq ~bcpc l t -> emit0 env bq ~bcpc (StLoc l) [ t ]);
         fo_ltype = (fun l ->
             match Hashtbl.find_opt ltypes l with
             | Some t -> t
             | None -> R.cell);
         fo_set_ltype = (fun l t -> Hashtbl.replace ltypes l t);
         fo_this = (fun bq ~bcpc ->
             let ty = match func.fn_cls with
               | Some c -> R.obj_sub c
               | None -> R.obj
             in
             emitd env bq ~bcpc LdThis [] ty);
         fo_exit = (fun _bq ~bcpc ~pc xst ->
             side_exit env ~bcpc ~delta xst ~outer_pc:pc ~callee_pc:None);
         fo_ret = (fun bq ~bcpc v xst ->
             (* the frame dies here: sync sp to the true eval-stack depth
                so teardown releases exactly the frame-owned slots *)
             let spnow = delta - xst.consumed + List.length xst.stack in
             emit0 env bq ~bcpc (SyncSp spnow) [];
             emit0 env bq ~bcpc Teardown [];
             emit0 env bq ~bcpc RetC [ v ]);
         fo_flush = (fun bq ~bcpc xst ->
             ignore (flush_stack env bq ~bcpc ~delta xst));
         fo_iters_ok = true;
       } in
       let ty_of_depth d =
         match Hashtbl.find_opt stack_types d with
         | Some t -> t
         | None -> R.init_cell
       in
       let succ bq ~bcpc ~pc (xst : lstate) : int =
         ignore bq;
         let spdelta = delta - xst.consumed + List.length xst.stack in
         (* live and profiling translations break at every jump (§4.1):
            all transitions go through the engine, which re-checks guards
            and records TransCFG arcs between profiling blocks *)
         if mode <> Optimized then
           make_exit_stub env ~bcpc ~pc ~spdelta ~flush:[] ~inline:None ()
         else
           match Hashtbl.find_opt chain_heads pc with
           | Some (head :: _) -> Hashtbl.find blkmap head.b_id
           | _ ->
             make_exit_stub env ~bcpc ~pc ~spdelta ~flush:[] ~inline:None ()
       in
       lower_bc env ib st ~fr ~delta ~ty_of_depth ~succ
         ~start:rb.b_start ~len:rb.b_len)
    region.r_blocks;
  let entries =
    match Hashtbl.find_opt chain_heads entry_pc with
    | Some chain ->
      List.map (fun (bb : Region.Rdesc.block) ->
          (bb, Hashtbl.find blkmap bb.b_id)) chain
    | None -> [ (entry_rb, Hashtbl.find blkmap entry_rb.b_id) ]
  in
  u.entries <- List.map snd entries;
  { lw_ir = u; lw_entries = entries;
    lw_blockmap = Hashtbl.fold (fun k v a -> (k, v) :: a) blkmap [] }
