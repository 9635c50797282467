(** HHIR → Vasm lowering.

    Mostly 1:1 (§4.4).  Virtual register ids coincide with SSA tmp ids, so
    exit specs (which reference tmps) can be resolved to register-allocation
    locations after regalloc.  Block weights for layout come from the region
    block profile counters, passed in by the engine. *)

open Hhir.Ir
open Vinstr

let lower (u : Hhir.Ir.t) ~(weights : (int, int) Hashtbl.t) : int prog =
  let next = ref u.next_tmp in
  let fresh () = incr next; !next - 1 in
  let reg (t : tmp) = t.t_id in
  let exits = Array.of_list (List.rev u.exits) in
  let exit_live (eid : int) : int list =
    if eid < 0 || eid >= Array.length exits then []
    else
      match exits.(eid).es_inline with
      | None -> []
      | Some ie ->
        (match ie.ie_this with Some t -> [ reg t ] | None -> [])
        @ List.map (fun (_, t) -> reg t) ie.ie_locals
        @ List.map reg ie.ie_stack
  in
  let lower_instr (i : instr) : int Vinstr.t list =
    let d () = reg (Option.get i.i_dst) in
    let a n = reg (List.nth i.i_args n) in
    let taken () = Option.get i.i_taken in
    let fixup () =
      match Hashtbl.find_opt u.call_fixups i.i_id with
      | Some eid -> Some (eid, exit_live eid)
      | None -> None
    in
    let helper h =
      [ VHelper (h, List.map reg i.i_args, Option.map reg i.i_dst, fixup ()) ]
    in
    match i.i_op with
    | ConstInt n -> [ VImm (d (), Runtime.Value.VInt n) ]
    | ConstDbl f -> [ VImm (d (), Runtime.Value.VDbl f) ]
    | ConstBool b -> [ VImm (d (), Runtime.Value.VBool b) ]
    | ConstNull -> [ VImm (d (), Runtime.Value.VNull) ]
    | ConstUninit -> [ VImm (d (), Runtime.Value.VUninit) ]
    | ConstStr s -> [ VImm (d (), Hhbc.Hunit.intern s) ]
    | LdLoc l -> [ VLdLoc (d (), l) ]
    | StLoc l -> [ VStLoc (l, a 0) ]
    | LdStk s -> [ VLdStk (d (), s) ]
    | StStk s -> [ VStStk (s, a 0) ]
    | LdThis -> [ VLdThis (d ()) ]
    | CheckLoc l ->
      let s = fresh () in
      [ VLdLoc (s, l); VCheckTag (s, (Option.get i.i_dst).t_ty, taken ()) ]
    | CheckStk slot ->
      let s = fresh () in
      [ VLdStk (s, slot); VCheckTag (s, (Option.get i.i_dst).t_ty, taken ()) ]
    | CheckType ->
      [ VCheckTag (a 0, (Option.get i.i_dst).t_ty, taken ());
        VMov (d (), a 0) ]
    | AssertType | Box | Unbox -> [ VMov (d (), a 0) ]
    | IncRef -> [ VIncRef (a 0) ]
    | DecRef -> [ VDecRef (a 0) ]
    | DecRefNZ -> [ VDecRefNZ (a 0) ]
    | AddInt -> [ VArithI (Add, d (), a 0, a 1) ]
    | SubInt -> [ VArithI (Sub, d (), a 0, a 1) ]
    | MulInt -> [ VArithI (Mul, d (), a 0, a 1) ]
    | ModInt -> [ VArithI (Mod, d (), a 0, a 1) ]
    | AndInt -> [ VArithI (And, d (), a 0, a 1) ]
    | OrInt -> [ VArithI (Or, d (), a 0, a 1) ]
    | XorInt -> [ VArithI (Xor, d (), a 0, a 1) ]
    | ShlInt -> [ VArithI (Shl, d (), a 0, a 1) ]
    | ShrInt -> [ VArithI (Shr, d (), a 0, a 1) ]
    | NegInt -> [ VNegI (d (), a 0) ]
    | NotBool -> [ VNotB (d (), a 0) ]
    | AddDbl -> [ VArithD (DAdd, d (), a 0, a 1) ]
    | SubDbl -> [ VArithD (DSub, d (), a 0, a 1) ]
    | MulDbl -> [ VArithD (DMul, d (), a 0, a 1) ]
    | DivDbl -> [ VArithD (DDiv, d (), a 0, a 1) ]
    | NegDbl -> [ VNegD (d (), a 0) ]
    | CvtIntToDbl -> [ VCvtID (d (), a 0) ]
    | CmpInt c -> [ VCmpI (c, d (), a 0, a 1) ]
    | CmpDbl c -> [ VCmpD (c, d (), a 0, a 1) ]
    | CmpStr c -> [ VCmpS (c, d (), a 0, a 1) ]
    | EqBool -> [ VCmpB (d (), a 0, a 1) ]
    | ConvToBool -> [ VToBool (d (), a 0) ]
    | ConcatStr -> helper HConcat
    | ConvToStr -> helper HToStr
    | ConvToInt -> helper HToInt
    | ConvToDbl -> helper HToDbl
    | GenBinop op -> helper (HGenBinop op)
    | GenUnop op -> helper (HGenUnop op)
    | GenPrint -> helper HGenPrint
    | PrintStr -> helper HPrintStr
    | PrintInt -> helper HPrintInt
    | NewArr -> helper HNewArr
    | ArrAppend -> helper HArrAppend
    | ArrSet -> helper HArrSet
    | ArrUnset -> helper HArrUnset
    | ArrGetPacked -> helper HArrGetPacked
    | ArrGet -> helper HArrGet
    | ArrIsset -> helper HArrIsset
    | CountArray -> [ VCount (d (), a 0) ]
    | LdProp slot -> [ VLdProp (d (), a 0, slot) ]
    | StPropRaw slot -> [ VStProp (a 0, slot, a 1) ]
    | LdPropGen p -> helper (HLdPropGen p)
    | StPropGen p -> helper (HStPropGen p)
    | IncDecProp (slot, op) -> helper (HIncDecProp (slot, op))
    | IssetPropGen p -> helper (HIssetPropGen p)
    | IssetVal -> helper HIssetVal
    | LdObjClass -> [ VLdCls (d (), a 0) ]
    | InstanceOfBits c -> helper (HInstanceOfBits c)
    | InstanceOfGen c -> helper (HInstanceOfGen c)
    | CallPhp fid -> helper (HCallPhp fid)
    | CallPhpT fid -> helper (HCallPhpT fid)
    | CallMethodSlow m -> helper (HCallMethod m)
    | CallMethodCached (m, c) -> helper (HCallMethodCached (m, c))
    | CheckMethodFid (m, fid) -> helper (HCheckMethodFid (m, fid))
    | CallCtor c -> helper (HCallCtor c)
    | CallBuiltin n -> helper (HCallBuiltin n)
    | IterInitH it -> helper (HIterInit it)
    | IterKVH (it, k, v) -> helper (HIterKV (it, k, v))
    | IterNextH it -> helper (HIterNext it)
    | IterFreeH it -> helper (HIterFree it)
    | Counter c -> [ VCounter c ]
    | ProfMethTarget (f, pc) -> [ VProfMeth (f, pc, a 0) ]
    | ProfCallEdge fid -> [ VProfEdge fid ]
    | Jmp -> [ VJmp (taken ()) ]
    | JmpZero -> [ VJmpZ (a 0, taken ()) ]
    | JmpNZero -> [ VJmpNZ (a 0, taken ()) ]
    | ReqBind eid -> [ VReqBind (eid, exit_live eid) ]
    | SideExitGuard -> []
    | RetC -> [ VRet (a 0) ]
    | SyncSp n -> [ VSetSp n ]
    | Teardown -> [ VHelper (HTeardown, [], None, None) ]
    | Nop -> []
  in
  let vblocks =
    List.map
      (fun (id, b) ->
         { vb_id = id;
           vb_instrs = List.concat_map lower_instr b.b_instrs;
           vb_weight =
             Option.value (Hashtbl.find_opt weights id) ~default:1 })
      u.blocks
  in
  { vblocks;
    ventry = u.entry;
    ventries = (if u.entries = [] then [ u.entry ] else u.entries);
    vexits = exits;
    vnext_reg = !next }
