(** HHIR — the HipHop Intermediate Representation (paper §4.3).

    A typed, SSA-based IR aware of PHP semantics.  SSA temporaries carry
    {!Hhbc.Rtype} types; VM state (frame locals, the eval stack) is accessed
    through explicit Ld/St instructions so passes such as load elimination,
    store elimination and RCE can reason about memory.

    Specific-typed temporaries lower to raw machine words; union-typed
    temporaries are *boxed* (a full runtime value in one word) and flow
    through generic helper operations — this is how type specialization
    pays: specialized code uses cheap machine ops, relaxed/unknown types
    fall back to expensive generic helpers.

    Side exits are described by {!exit_spec} records: enough metadata to
    reconstruct the VM state (eval-stack contents, and — for partial
    inlining — a materialized callee frame, §5.3.1/§3.3) and resume in the
    interpreter at an exact bytecode pc. *)

module R = Hhbc.Rtype

type tmp = {
  t_id : int;
  mutable t_ty : R.t;
}

type cmp = Runtime.Ops.cmp = Ceq | Cne | Clt | Cle | Cgt | Cge

let cmp_name = function
  | Ceq -> "Eq" | Cne -> "Ne" | Clt -> "Lt" | Cle -> "Le" | Cgt -> "Gt" | Cge -> "Ge"

type op =
  (* ---- constants ---- *)
  | ConstInt of int
  | ConstDbl of float
  | ConstBool of bool
  | ConstNull
  | ConstUninit
  | ConstStr of string                (* static string *)
  (* ---- VM state access ---- *)
  | LdLoc of int                      (* dst: boxed or typed per dst ty *)
  | StLoc of int                      (* arg: value (boxed or typed) *)
  | LdStk of int                      (* eval-stack slot, depth from entry sp *)
  | StStk of int
  | LdThis
  (* ---- guards / type manipulation (taken = side-exit exit id) ---- *)
  | CheckLoc of int                   (* dst ty is the guarded type *)
  | CheckStk of int
  | CheckType                         (* arg boxed; dst refined; fail -> exit *)
  | AssertType                        (* no runtime check *)
  | Box                               (* typed raw -> boxed *)
  | Unbox                             (* boxed -> raw (dst ty specific) *)
  (* ---- reference counting (explicit, so RCE can optimize; §5.3.2) ---- *)
  | IncRef
  | DecRef
  | DecRefNZ
  (* ---- specialized arithmetic / comparison ---- *)
  | AddInt | SubInt | MulInt | ModInt
  | AndInt | OrInt | XorInt | ShlInt | ShrInt
  | NegInt | NotBool
  | AddDbl | SubDbl | MulDbl | DivDbl | NegDbl
  | CvtIntToDbl
  | CmpInt of cmp | CmpDbl of cmp | CmpStr of cmp
  | EqBool
  | ConcatStr                         (* str x str -> counted str *)
  | ConvToBool                        (* specific arg; per-type lowering *)
  | ConvToStr
  | ConvToInt
  | ConvToDbl
  (* ---- generic fallbacks (boxed args/results; helper calls) ---- *)
  | GenBinop of Hhbc.Instr.binop
  | GenUnop of Hhbc.Instr.unop   (* generic unary op or cast: helper *)
  | GenPrint
  | PrintStr | PrintInt
  (* ---- arrays (value semantics / COW inside helpers) ---- *)
  | NewArr
  | ArrAppend                         (* arr v -> arr' (consumes v's ref) *)
  | ArrSet                            (* arr k v -> arr' *)
  | ArrUnset                          (* arr k -> arr' *)
  | ArrGetPacked                      (* arr int -> boxed val (incref'd) *)
  | ArrGet                            (* arr k -> boxed val *)
  | ArrIsset                          (* arr k -> bool *)
  | CountArray                        (* arr -> int *)
  (* ---- objects ---- *)
  | LdProp of int                     (* obj -> boxed val (NOT incref'd) *)
  | StPropRaw of int                  (* obj v: raw slot write, no rc *)
  | LdPropGen of string               (* obj -> boxed val (incref'd); by-name *)
  | StPropGen of string               (* obj v -> (rc handled); by-name *)
  | IncDecProp of int * Hhbc.Instr.incdec_op  (* obj -> boxed result; slot *)
  | IssetPropGen of string            (* obj -> bool *)
  | LdObjClass                        (* obj -> int class id *)
  | InstanceOfBits of string          (* obj -> bool (bitwise check) *)
  | InstanceOfGen of string           (* boxed -> bool *)
  | IssetVal                          (* boxed -> bool (not null/uninit) *)
  (* ---- calls (block-terminal at bytecode level, but plain IR instrs) ---- *)
  | CallPhp of int                    (* fid; boxed args; dst boxed *)
  | CallPhpT of int                   (* fid; first arg is the receiver *)
  | CallMethodSlow of string          (* recv :: args; full lookup *)
  | CallMethodCached of string * int  (* inline cache id (§5.3.3) *)
  | CheckMethodFid of string * int    (* obj -> bool: does dispatch of the
                                         method resolve to this fid? *)
  | CallCtor of string                (* NewObjD: alloc + ctor; dst obj *)
  | CallBuiltin of string
  (* ---- iterators ---- *)
  | IterInitH of int                  (* arg arr (consumed); dst bool *)
  | IterKVH of int * int option * int (* iter, key local, value local *)
  | IterNextH of int                  (* dst bool: has more *)
  | IterFreeH of int
  (* ---- profiling instrumentation (§4.1) ---- *)
  | Counter of int
  | ProfMethTarget of int * int       (* (func, pc) callsite; arg: obj *)
  | ProfCallEdge of int               (* callee fid, for the dynamic call graph *)
  (* ---- control flow ---- *)
  | Jmp                               (* taken = target block *)
  | JmpZero                           (* arg; taken if zero/false *)
  | JmpNZero
  | ReqBind of int                    (* exit id: leave region to bytecode *)
  | SideExitGuard                     (* exit id in [taken] — emitted-only *)
  | RetC                              (* arg: boxed return value *)
  | SyncSp of int                     (* frame.sp := region entry sp + n *)
  | Teardown                          (* decref frame locals + $this *)
  | Nop

type instr = {
  i_id : int;
  mutable i_op : op;
  mutable i_args : tmp list;
  mutable i_dst : tmp option;
  mutable i_taken : int option;   (* target block id, or exit id for ReqBind *)
  i_bcpc : int;                   (* bytecode marker *)
}

(** OSR metadata: how to rebuild VM state when leaving compiled code at this
    point (paper §3.3). *)
type inline_exit = {
  ie_fid : int;
  ie_this : tmp option;
  ie_locals : (int * tmp) list;   (* callee local -> value *)
  ie_stack : tmp list;            (* callee eval stack, bottom first *)
  ie_pc : int;                    (* resume pc inside the callee *)
}

type exit_spec = {
  es_pc : int;                    (* resume pc in the outer frame *)
  es_spdelta : int;               (* sp adjustment vs. region-entry sp; the
                                     stub's StStk instructions already put
                                     the values in place *)
  es_inline : inline_exit option; (* materialize a callee frame first *)
  es_interp : bool;               (* must interpret at es_pc (the exit
                                     re-executes the current instruction);
                                     prevents re-entry loops *)
}

type block = {
  b_id : int;
  mutable b_instrs : instr list;  (* in order *)
}

type t = {
  func : Hhbc.Instr.func;
  hunit : Hhbc.Hunit.t;
  mutable blocks : (int * block) list;   (* ordered; entry first *)
  mutable entry : int;
  mutable entries : int list;            (* all engine entry blocks (chain) *)
  mutable exits : exit_spec list;        (* reversed; index = exit id *)
  mutable n_exits : int;
  (* call-site fixups for exception unwinding (HHVM's fixup map): instr id
     -> exit id describing VM state at the call *)
  call_fixups : (int, int) Hashtbl.t;
  mutable next_tmp : int;
  mutable next_instr : int;
  mutable next_block : int;
  (* inline-cache ids ([CallMethodCached]) are unit-local, 0-based: the
     engine maps them to global ids when the translation is placed in the
     code cache, so compilation itself never touches shared state and can
     run on any JIT worker domain *)
  mutable next_cache : int;
}

let create (hunit : Hhbc.Hunit.t) (func : Hhbc.Instr.func) : t =
  { func; hunit; blocks = []; entry = 0; entries = []; exits = [];
    n_exits = 0; call_fixups = Hashtbl.create 8;
    next_tmp = 0; next_instr = 0; next_block = 0; next_cache = 0 }

let new_tmp (u : t) (ty : R.t) : tmp =
  let t = { t_id = u.next_tmp; t_ty = ty } in
  u.next_tmp <- u.next_tmp + 1;
  t

let new_block (u : t) : block =
  let b = { b_id = u.next_block; b_instrs = [] } in
  u.next_block <- u.next_block + 1;
  u.blocks <- u.blocks @ [ (b.b_id, b) ];
  b

let block (u : t) (id : int) : block = List.assoc id u.blocks

let add_exit (u : t) (es : exit_spec) : int =
  u.exits <- es :: u.exits;
  u.n_exits <- u.n_exits + 1;
  u.n_exits - 1

let exit_spec (u : t) (id : int) : exit_spec =
  List.nth u.exits (u.n_exits - 1 - id)

let append (u : t) (b : block) ~(dst : tmp option) ~(taken : int option)
    ~(bcpc : int) (op : op) (args : tmp list) : instr =
  let i = { i_id = u.next_instr; i_op = op; i_args = args; i_dst = dst;
            i_taken = taken; i_bcpc = bcpc } in
  u.next_instr <- u.next_instr + 1;
  b.b_instrs <- b.b_instrs @ [ i ];
  i

(** Terminal instructions end a block. *)
let is_terminal (op : op) : bool =
  match op with
  | Jmp | ReqBind _ | RetC -> true
  | _ -> false

(** Pure instructions (no side effects, no memory writes, cannot exit) —
    eligible for GVN and DCE. *)
let is_pure (op : op) : bool =
  match op with
  | ConstInt _ | ConstDbl _ | ConstBool _ | ConstNull | ConstUninit
  | ConstStr _
  | Box | Unbox | AssertType
  | AddInt | SubInt | MulInt
  | AndInt | OrInt | XorInt | ShlInt | ShrInt
  | NegInt | NotBool
  | AddDbl | SubDbl | MulDbl | DivDbl | NegDbl
  | CvtIntToDbl
  | CmpInt _ | CmpDbl _ | CmpStr _ | EqBool
  | ConvToBool | LdObjClass
  | CountArray | IssetVal
  | InstanceOfBits _ | InstanceOfGen _
  | Nop -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let op_name (op : op) : string =
  match op with
  | ConstInt n -> Printf.sprintf "ConstInt %d" n
  | ConstDbl d -> Printf.sprintf "ConstDbl %g" d
  | ConstBool b -> Printf.sprintf "ConstBool %b" b
  | ConstNull -> "ConstNull"
  | ConstUninit -> "ConstUninit"
  | ConstStr s -> Printf.sprintf "ConstStr %S" s
  | LdLoc l -> Printf.sprintf "LdLoc<%d>" l
  | StLoc l -> Printf.sprintf "StLoc<%d>" l
  | LdStk d -> Printf.sprintf "LdStk<%d>" d
  | StStk d -> Printf.sprintf "StStk<%d>" d
  | LdThis -> "LdThis"
  | CheckLoc l -> Printf.sprintf "CheckLoc<%d>" l
  | CheckStk d -> Printf.sprintf "CheckStk<%d>" d
  | CheckType -> "CheckType"
  | AssertType -> "AssertType"
  | Box -> "Box"
  | Unbox -> "Unbox"
  | IncRef -> "IncRef"
  | DecRef -> "DecRef"
  | DecRefNZ -> "DecRefNZ"
  | AddInt -> "AddInt" | SubInt -> "SubInt" | MulInt -> "MulInt"
  | ModInt -> "ModInt"
  | AndInt -> "AndInt" | OrInt -> "OrInt" | XorInt -> "XorInt"
  | ShlInt -> "ShlInt" | ShrInt -> "ShrInt"
  | NegInt -> "NegInt" | NotBool -> "NotBool"
  | AddDbl -> "AddDbl" | SubDbl -> "SubDbl" | MulDbl -> "MulDbl"
  | DivDbl -> "DivDbl" | NegDbl -> "NegDbl"
  | CvtIntToDbl -> "CvtIntToDbl"
  | CmpInt c -> "CmpInt" ^ cmp_name c
  | CmpDbl c -> "CmpDbl" ^ cmp_name c
  | CmpStr c -> "CmpStr" ^ cmp_name c
  | EqBool -> "EqBool"
  | ConcatStr -> "ConcatStr"
  | ConvToBool -> "ConvToBool"
  | ConvToStr -> "ConvToStr"
  | ConvToInt -> "ConvToInt"
  | ConvToDbl -> "ConvToDbl"
  | GenBinop op -> "Gen" ^ Hhbc.Instr.binop_name op
  | GenUnop op -> "Gen" ^ Hhbc.Instr.(opcode_names.(opcode_id (Unop op)))
  | GenPrint -> "GenPrint"
  | PrintStr -> "PrintStr" | PrintInt -> "PrintInt"
  | NewArr -> "NewArr"
  | ArrAppend -> "ArrAppend"
  | ArrSet -> "ArrSet"
  | ArrUnset -> "ArrUnset"
  | ArrGetPacked -> "ArrGetPacked"
  | ArrGet -> "ArrGet"
  | ArrIsset -> "ArrIsset"
  | CountArray -> "CountArray"
  | LdProp s -> Printf.sprintf "LdProp<%d>" s
  | StPropRaw s -> Printf.sprintf "StPropRaw<%d>" s
  | LdPropGen p -> Printf.sprintf "LdPropGen<%s>" p
  | StPropGen p -> Printf.sprintf "StPropGen<%s>" p
  | IncDecProp (s, _) -> Printf.sprintf "IncDecProp<%d>" s
  | IssetPropGen p -> Printf.sprintf "IssetPropGen<%s>" p
  | IssetVal -> "IssetVal"
  | ProfCallEdge f -> Printf.sprintf "ProfCallEdge<f%d>" f
  | LdObjClass -> "LdObjClass"
  | InstanceOfBits c -> Printf.sprintf "InstanceOfBits<%s>" c
  | InstanceOfGen c -> Printf.sprintf "InstanceOfGen<%s>" c
  | CallPhp fid -> Printf.sprintf "CallPhp<f%d>" fid
  | CallPhpT fid -> Printf.sprintf "CallPhpT<f%d>" fid
  | CheckMethodFid (m, fid) -> Printf.sprintf "CheckMethodFid<%s,f%d>" m fid
  | CallMethodSlow m -> Printf.sprintf "CallMethodSlow<%s>" m
  | CallMethodCached (m, c) -> Printf.sprintf "CallMethodCached<%s,#%d>" m c
  | CallCtor c -> Printf.sprintf "CallCtor<%s>" c
  | CallBuiltin n -> Printf.sprintf "CallBuiltin<%s>" n
  | IterInitH i -> Printf.sprintf "IterInitH<%d>" i
  | IterKVH (i, k, v) ->
    Printf.sprintf "IterKVH<%d,%s,%d>" i
      (match k with Some k -> string_of_int k | None -> "_") v
  | IterNextH i -> Printf.sprintf "IterNextH<%d>" i
  | IterFreeH i -> Printf.sprintf "IterFreeH<%d>" i
  | Counter c -> Printf.sprintf "Counter<%d>" c
  | ProfMethTarget (f, pc) -> Printf.sprintf "ProfMethTarget<f%d@%d>" f pc
  | Jmp -> "Jmp"
  | JmpZero -> "JmpZero"
  | JmpNZero -> "JmpNZero"
  | ReqBind pc -> Printf.sprintf "ReqBind<pc %d>" pc
  | SideExitGuard -> "SideExitGuard"
  | RetC -> "RetC"
  | SyncSp n -> Printf.sprintf "SyncSp<%d>" n
  | Teardown -> "Teardown"
  | Nop -> "Nop"

let tmp_to_string (t : tmp) = Printf.sprintf "t%d:%s" t.t_id (R.to_string t.t_ty)

let instr_to_string (i : instr) : string =
  let dst = match i.i_dst with
    | Some d -> tmp_to_string d ^ " = "
    | None -> ""
  in
  let args = String.concat ", " (List.map tmp_to_string i.i_args) in
  let taken = match i.i_taken with
    | Some t -> Printf.sprintf " ->%d" t
    | None -> ""
  in
  Printf.sprintf "(%02d) %s%s %s%s" i.i_bcpc dst (op_name i.i_op) args taken

let to_string (u : t) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "IR for %s (entry B%d):\n" u.func.fn_name u.entry);
  List.iter
    (fun (id, b) ->
       Buffer.add_string buf (Printf.sprintf " B%d:\n" id);
       List.iter
         (fun i -> Buffer.add_string buf ("   " ^ instr_to_string i ^ "\n"))
         b.b_instrs)
    u.blocks;
  List.iteri
    (fun idx es ->
       let idx = u.n_exits - 1 - idx in
       Buffer.add_string buf
         (Printf.sprintf " exit %d: pc=%d spdelta=%d%s\n"
            idx es.es_pc es.es_spdelta
            (match es.es_inline with
             | Some ie -> Printf.sprintf " inline(f%d @%d)" ie.ie_fid ie.ie_pc
             | None -> "")))
    u.exits;
  Buffer.contents buf
