(** Vasm — the low-level virtual assembly (paper §4.4).

    Vasm is close to machine code with a 1:1 instruction mapping; the main
    difference from machine code is the infinite virtual register file —
    register allocation happens at this level.  Registers hold simulated
    machine words; in this reproduction a word is a runtime [value] and the
    specialization story lives in the *cost model*: specialized ops cost a
    few cycles, generic helpers cost a call plus the helper's work (see
    {!cycles}).  Each instruction also has a byte size, which drives the
    i-cache / I-TLB model and all code-locality experiments. *)

type cmp = Hhir.Ir.cmp

(* Arithmetic operators, with their semantics in {!Runtime.Ops}. *)
type iop = Runtime.Ops.iop = Add | Sub | Mul | Mod | And | Or | Xor | Shl | Shr
type dop = Runtime.Ops.dop = DAdd | DSub | DMul | DDiv

(** Runtime helpers: out-of-line routines implemented by the engine. *)
type helper =
  | HGenBinop of Hhbc.Instr.binop
  | HGenUnop of Hhbc.Instr.unop
  | HGenPrint
  | HPrintStr
  | HPrintInt
  | HConcat
  | HToStr
  | HToInt
  | HToDbl
  | HNewArr
  | HArrAppend
  | HArrSet
  | HArrUnset
  | HArrGet
  | HArrGetPacked
  | HArrIsset
  | HLdPropGen of string
  | HStPropGen of string
  | HIncDecProp of int * Hhbc.Instr.incdec_op
  | HIssetPropGen of string
  | HIssetVal
  | HInstanceOfGen of string
  | HInstanceOfBits of string
  | HCallPhp of int
  | HCallPhpT of int
  | HCallMethod of string
  | HCallMethodCached of string * int
  | HCheckMethodFid of string * int
  | HCallCtor of string
  | HCallBuiltin of string
  | HIterInit of int
  | HIterKV of int * int option * int
  | HIterNext of int
  | HIterFree of int
  | HTeardown

(** Instructions over registers of type ['r] (virtual before allocation,
    physical after).  Branch targets are block labels until assembly. *)
type 'r t =
  | VImm of 'r * Runtime.Value.value
  | VMov of 'r * 'r
  | VArithI of iop * 'r * 'r * 'r
  | VArithD of dop * 'r * 'r * 'r
  | VNegI of 'r * 'r
  | VNegD of 'r * 'r
  | VNotB of 'r * 'r
  | VCvtID of 'r * 'r
  | VCmpI of cmp * 'r * 'r * 'r
  | VCmpD of cmp * 'r * 'r * 'r
  | VCmpS of cmp * 'r * 'r * 'r
  | VCmpB of 'r * 'r * 'r
  | VToBool of 'r * 'r
  | VLdLoc of 'r * int
  | VStLoc of int * 'r
  | VLdStk of 'r * int
  | VStStk of int * 'r
  | VLdThis of 'r
  | VLdProp of 'r * 'r * int          (* dst, obj, slot *)
  | VStProp of 'r * int * 'r          (* obj, slot, src *)
  | VLdCls of 'r * 'r
  | VCount of 'r * 'r
  | VCheckTag of 'r * Hhbc.Rtype.t * int     (* jump to label if NOT in type *)
  | VIncRef of 'r
  | VDecRef of 'r
  | VDecRefNZ of 'r
  | VJmp of int
  | VJmpZ of 'r * int
  | VJmpNZ of 'r * int
  | VHelper of helper * 'r list * 'r option * (int * 'r list) option
      (* args, dst, fixup: (exit id, values kept live for unwinding) *)
  | VRet of 'r
  | VSetSp of int                      (* frame.sp := entry sp + n *)
  | VReqBind of int * 'r list          (* exit id; extra uses for liveness *)
  | VCounter of int
  | VProfMeth of int * int * 'r
  | VProfEdge of int
  | VSpill of int * 'r
  | VReload of 'r * int
  | VNop

(** Register uses of an instruction (reads). *)
let uses (i : 'r t) : 'r list =
  match i with
  | VImm _ | VJmp _ | VCounter _ | VProfEdge _ | VNop | VSetSp _
  | VLdLoc _ | VLdStk _ | VLdThis _ | VReload _ -> []
  | VMov (_, s) | VNegI (_, s) | VNegD (_, s) | VNotB (_, s)
  | VCvtID (_, s) | VToBool (_, s) | VLdCls (_, s) | VCount (_, s)
  | VLdProp (_, s, _) -> [ s ]
  | VArithI (_, _, a, b) | VArithD (_, _, a, b)
  | VCmpI (_, _, a, b) | VCmpD (_, _, a, b) | VCmpS (_, _, a, b)
  | VCmpB (_, a, b) -> [ a; b ]
  | VStLoc (_, s) | VStStk (_, s) | VSpill (_, s)
  | VJmpZ (s, _) | VJmpNZ (s, _) | VRet s
  | VCheckTag (s, _, _) | VIncRef s | VDecRef s | VDecRefNZ s
  | VProfMeth (_, _, s) -> [ s ]
  | VStProp (o, _, s) -> [ o; s ]
  | VHelper (_, args, _, fx) ->
    args @ (match fx with Some (_, live) -> live | None -> [])
  | VReqBind (_, us) -> us

(** Register defined by an instruction (write), if any. *)
let def (i : 'r t) : 'r option =
  match i with
  | VImm (d, _) | VMov (d, _) | VArithI (_, d, _, _) | VArithD (_, d, _, _)
  | VNegI (d, _) | VNegD (d, _) | VNotB (d, _) | VCvtID (d, _)
  | VCmpI (_, d, _, _) | VCmpD (_, d, _, _) | VCmpS (_, d, _, _)
  | VCmpB (d, _, _) | VToBool (d, _) | VLdLoc (d, _) | VLdStk (d, _)
  | VLdThis d | VLdProp (d, _, _) | VLdCls (d, _) | VCount (d, _)
  | VReload (d, _) -> Some d
  | VHelper (_, _, dst, _) -> dst
  | _ -> None

let map_regs (f : 'a -> 'b) (i : 'a t) : 'b t =
  match i with
  | VImm (d, v) -> VImm (f d, v)
  | VMov (d, s) -> VMov (f d, f s)
  | VArithI (op, d, a, b) -> VArithI (op, f d, f a, f b)
  | VArithD (op, d, a, b) -> VArithD (op, f d, f a, f b)
  | VNegI (d, s) -> VNegI (f d, f s)
  | VNegD (d, s) -> VNegD (f d, f s)
  | VNotB (d, s) -> VNotB (f d, f s)
  | VCvtID (d, s) -> VCvtID (f d, f s)
  | VCmpI (c, d, a, b) -> VCmpI (c, f d, f a, f b)
  | VCmpD (c, d, a, b) -> VCmpD (c, f d, f a, f b)
  | VCmpS (c, d, a, b) -> VCmpS (c, f d, f a, f b)
  | VCmpB (d, a, b) -> VCmpB (f d, f a, f b)
  | VToBool (d, s) -> VToBool (f d, f s)
  | VLdLoc (d, l) -> VLdLoc (f d, l)
  | VStLoc (l, s) -> VStLoc (l, f s)
  | VLdStk (d, s) -> VLdStk (f d, s)
  | VStStk (s, r) -> VStStk (s, f r)
  | VLdThis d -> VLdThis (f d)
  | VLdProp (d, o, sl) -> VLdProp (f d, f o, sl)
  | VStProp (o, sl, s) -> VStProp (f o, sl, f s)
  | VLdCls (d, s) -> VLdCls (f d, f s)
  | VCount (d, s) -> VCount (f d, f s)
  | VCheckTag (s, ty, l) -> VCheckTag (f s, ty, l)
  | VIncRef s -> VIncRef (f s)
  | VDecRef s -> VDecRef (f s)
  | VDecRefNZ s -> VDecRefNZ (f s)
  | VJmp l -> VJmp l
  | VJmpZ (s, l) -> VJmpZ (f s, l)
  | VJmpNZ (s, l) -> VJmpNZ (f s, l)
  | VHelper (h, args, dst, fx) ->
    VHelper (h, List.map f args, Option.map f dst,
             Option.map (fun (e, live) -> (e, List.map f live)) fx)
  | VRet s -> VRet (f s)
  | VSetSp n -> VSetSp n
  | VReqBind (e, us) -> VReqBind (e, List.map f us)
  | VCounter c -> VCounter c
  | VProfMeth (a, b, s) -> VProfMeth (a, b, f s)
  | VProfEdge e -> VProfEdge e
  | VSpill (sl, s) -> VSpill (sl, f s)
  | VReload (d, sl) -> VReload (f d, sl)
  | VNop -> VNop

let branch_label (i : 'r t) : int option =
  match i with
  | VJmp l | VJmpZ (_, l) | VJmpNZ (_, l) | VCheckTag (_, _, l) -> Some l
  | _ -> None

let with_label (i : 'r t) (l : int) : 'r t =
  match i with
  | VJmp _ -> VJmp l
  | VJmpZ (s, _) -> VJmpZ (s, l)
  | VJmpNZ (s, _) -> VJmpNZ (s, l)
  | VCheckTag (s, ty, _) -> VCheckTag (s, ty, l)
  | i -> i

(* ------------------------------------------------------------------ *)
(* Cost model: cycles and encoded size (bytes)                         *)
(* ------------------------------------------------------------------ *)

(** Base execution cost in cycles (instruction fetch is charged separately
    by the i-cache/I-TLB model). *)
let helper_cycles (h : helper) : int =
  match h with
  | HGenBinop _ -> 18
  | HGenUnop _ -> 12
  | HGenPrint -> 22
  | HPrintStr | HPrintInt -> 12
  | HConcat -> 24
  | HToStr -> 16
  | HToInt | HToDbl -> 8
  | HNewArr -> 18
  | HArrAppend -> 12
  | HArrSet -> 14
  | HArrUnset -> 14
  | HArrGet -> 12
  | HArrGetPacked -> 6
  | HArrIsset -> 10
  | HLdPropGen _ -> 14
  | HStPropGen _ -> 14
  | HIncDecProp _ -> 10
  | HIssetPropGen _ -> 10
  | HIssetVal -> 2
  | HInstanceOfGen _ -> 10
  | HInstanceOfBits _ -> 3
  | HCallPhp _ | HCallPhpT _ -> 16          (* frame setup handshake *)
  | HCallMethod _ -> 30                     (* full method lookup *)
  | HCallMethodCached _ -> 8                (* inline-cache hit path *)
  | HCheckMethodFid _ -> 5
  | HCallCtor _ -> 30
  | HCallBuiltin _ -> 10
  | HIterInit _ -> 12
  | HIterKV _ -> 8
  | HIterNext _ -> 6
  | HIterFree _ -> 4
  | HTeardown -> 10

let cycles (i : 'r t) : int =
  match i with
  | VImm _ | VMov _ | VNop -> 1
  | VArithI ((Add | Sub | And | Or | Xor | Shl | Shr), _, _, _) -> 1
  | VArithI (Mul, _, _, _) -> 3
  | VArithI (Mod, _, _, _) -> 20
  | VArithD ((DAdd | DSub | DMul), _, _, _) -> 3
  | VArithD (DDiv, _, _, _) -> 12
  | VNegI _ | VNotB _ -> 1
  | VNegD _ -> 2
  | VCvtID _ -> 3
  | VCmpI _ | VCmpB _ -> 1
  | VCmpD _ -> 3
  | VCmpS _ -> 8
  | VToBool _ -> 1
  | VLdLoc _ | VLdStk _ | VLdThis _ -> 3
  | VStLoc _ | VStStk _ -> 2
  | VLdProp _ -> 4
  | VStProp _ -> 3
  | VLdCls _ -> 3
  | VCount _ -> 3
  | VCheckTag (_, ty, _) ->
    (* tag compare; array-kind / class specialization costs one more load *)
    (match ty.Hhbc.Rtype.arr, ty.Hhbc.Rtype.cls with
     | Hhbc.Rtype.APacked, _ -> 4
     | _, (Hhbc.Rtype.CExact _ | Hhbc.Rtype.CSub _) -> 4
     | _ -> 2)
  | VIncRef _ -> 2
  | VDecRef _ -> 5          (* test-and-branch + possible destructor path *)
  | VDecRefNZ _ -> 2
  | VJmp _ -> 1
  | VJmpZ _ | VJmpNZ _ -> 2
  | VHelper (h, args, _, _) -> 4 + List.length args + helper_cycles h
  | VRet _ -> 3
  | VSetSp _ -> 1
  | VReqBind _ -> 6
  | VCounter _ -> 12        (* shared counter increment: cache traffic *)
  | VProfMeth _ -> 16
  | VProfEdge _ -> 10
  | VSpill _ | VReload _ -> 3

(** Encoded size in bytes; drives code-size and i-cache behaviour. *)
let size_bytes (i : 'r t) : int =
  match i with
  | VNop -> 1
  | VImm _ -> 7
  | VMov _ -> 3
  | VArithI _ | VCmpI _ | VCmpB _ | VNotB _ | VNegI _ -> 3
  | VArithD _ | VCmpD _ | VNegD _ | VCvtID _ -> 4
  | VCmpS _ -> 5
  | VToBool _ -> 3
  | VLdLoc _ | VStLoc _ | VLdStk _ | VStStk _ | VLdThis _ -> 4
  | VLdProp _ | VStProp _ | VLdCls _ | VCount _ -> 4
  | VCheckTag _ -> 8
  | VIncRef _ -> 4
  | VDecRef _ -> 12         (* inline fast path + slow-path call *)
  | VDecRefNZ _ -> 4
  | VJmp _ -> 5
  | VJmpZ _ | VJmpNZ _ -> 6
  | VHelper (_, args, _, _) -> 8 + 2 * List.length args
  | VRet _ -> 3
  | VSetSp _ -> 4
  | VReqBind _ -> 10
  | VCounter _ -> 7
  | VProfMeth _ -> 10
  | VProfEdge _ -> 7
  | VSpill _ | VReload _ -> 4

(* ------------------------------------------------------------------ *)
(* A Vasm unit: blocks of instructions, labelled by block id           *)
(* ------------------------------------------------------------------ *)

type 'r vblock = {
  vb_id : int;
  mutable vb_instrs : 'r t list;
  mutable vb_weight : int;       (* profile weight for layout *)
}

type 'r prog = {
  mutable vblocks : 'r vblock list;   (* layout order *)
  ventry : int;
  ventries : int list;
  vexits : Hhir.Ir.exit_spec array;
  mutable vnext_reg : int;
}

let to_string (pp_reg : 'r -> string) (p : 'r prog) : string =
  let buf = Buffer.create 512 in
  let istr (i : 'r t) : string =
    let h = function
      | HGenBinop op -> "GenBinop" ^ Hhbc.Instr.binop_name op
      | HCallPhp f -> Printf.sprintf "CallPhp f%d" f
      | HCallPhpT f -> Printf.sprintf "CallPhpT f%d" f
      | HCallMethod m -> "CallMethod " ^ m
      | HCallMethodCached (m, c) -> Printf.sprintf "CallMethodCached %s #%d" m c
      | HCallCtor c -> "CallCtor " ^ c
      | HCallBuiltin n -> "CallBuiltin " ^ n
      | HConcat -> "Concat"
      | HTeardown -> "Teardown"
      | _ -> "helper"
    in
    match i with
    | VImm (d, v) -> Printf.sprintf "imm %s, %s" (pp_reg d) (Runtime.Value.debug_string v)
    | VMov (d, s) -> Printf.sprintf "mov %s, %s" (pp_reg d) (pp_reg s)
    | VArithI (_, d, a, b) -> Printf.sprintf "arithI %s, %s, %s" (pp_reg d) (pp_reg a) (pp_reg b)
    | VArithD (_, d, a, b) -> Printf.sprintf "arithD %s, %s, %s" (pp_reg d) (pp_reg a) (pp_reg b)
    | VCmpI (c, d, a, b) -> Printf.sprintf "cmpI%s %s, %s, %s" (Hhir.Ir.cmp_name c) (pp_reg d) (pp_reg a) (pp_reg b)
    | VLdLoc (d, l) -> Printf.sprintf "ldloc %s, L%d" (pp_reg d) l
    | VStLoc (l, s) -> Printf.sprintf "stloc L%d, %s" l (pp_reg s)
    | VLdStk (d, s) -> Printf.sprintf "ldstk %s, S%d" (pp_reg d) s
    | VStStk (s, r) -> Printf.sprintf "ststk S%d, %s" s (pp_reg r)
    | VCheckTag (s, ty, l) ->
      Printf.sprintf "checktag %s, %s -> B%d" (pp_reg s) (Hhbc.Rtype.to_string ty) l
    | VIncRef s -> "incref " ^ pp_reg s
    | VDecRef s -> "decref " ^ pp_reg s
    | VDecRefNZ s -> "decref-nz " ^ pp_reg s
    | VJmp l -> Printf.sprintf "jmp B%d" l
    | VJmpZ (s, l) -> Printf.sprintf "jz %s, B%d" (pp_reg s) l
    | VJmpNZ (s, l) -> Printf.sprintf "jnz %s, B%d" (pp_reg s) l
    | VHelper (hh, args, dst, _) ->
      Printf.sprintf "call %s (%s)%s" (h hh)
        (String.concat ", " (List.map pp_reg args))
        (match dst with Some d -> " -> " ^ pp_reg d | None -> "")
    | VRet s -> "ret " ^ pp_reg s
    | VReqBind (e, _) -> Printf.sprintf "reqbind exit%d" e
    | VCounter c -> Printf.sprintf "counter #%d" c
    | VSpill (sl, s) -> Printf.sprintf "spill [%d], %s" sl (pp_reg s)
    | VReload (d, sl) -> Printf.sprintf "reload %s, [%d]" (pp_reg d) sl
    | _ -> "<instr>"
  in
  List.iter
    (fun vb ->
       Buffer.add_string buf (Printf.sprintf "B%d (w=%d):\n" vb.vb_id vb.vb_weight);
       List.iter (fun i -> Buffer.add_string buf ("  " ^ istr i ^ "\n")) vb.vb_instrs)
    p.vblocks;
  Buffer.contents buf
