(** Operator agreement across tiers.

    Every tier computes MiniPHP's operators through {!Runtime.Ops}.  This
    test checks the edges: for every operator, every pair of operand tags
    and every pair of edge values, the AST constant folder, a one-block
    HHIR Simplify, and SimCPU executing the typed instruction that
    lowering picks for those tags each agree with the interpreter — or,
    for the two folders, decline to fold.  The interpreter's answer is
    {!Runtime.Ops.binop_fn}, the function its [Binop] handler calls. *)

open Runtime
module V = Value
module Ir = Hhir.Ir
module R = Hhbc.Rtype

(* A tier's answer, detached from the runtime heap. *)
type answer =
  | AInt of int
  | ADbl of float
  | ABool of bool
  | AStr of string
  | Fatal

let answer_of (v : V.value) : answer =
  match v with
  | VInt n -> AInt n
  | VDbl d -> ADbl d
  | VBool b -> ABool b
  | VStr s -> AStr s.data
  | v -> Alcotest.failf "unexpected result %s" (V.debug_string v)

let show = function
  | AInt n -> string_of_int n
  | ADbl d -> Printf.sprintf "%F" d
  | ABool b -> string_of_bool b
  | AStr s -> Printf.sprintf "%S" s
  | Fatal -> "fatal"

let agree (x : answer) (y : answer) =
  match x, y with
  | ADbl a, ADbl b ->
    (Float.is_nan a && Float.is_nan b)
    || Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  | _ -> x = y

let static s = V.VStr { rc = V.static_rc; id = 0; data = s }

let edge_values : V.value list =
  List.map (fun n -> V.VInt n) [ 0; 1; -1; min_int; max_int; 63; 64 ]
  @ List.map (fun d -> V.VDbl d)
    [ 0.0; -0.0; 1.0; -1.0; infinity; neg_infinity; nan ]
  @ List.map static [ ""; "0"; "9"; "10"; "a" ]
  @ [ V.VBool true; V.VBool false; V.VNull ]

let ast_ops : Mphp.Ast.binop list =
  [ Add; Sub; Mul; Div; Mod; Concat; Eq; Neq; Same; NSame;
    Lt; Lte; Gt; Gte; BitAnd; BitOr; BitXor; Shl; Shr ]

let interp (op : Ops.binop) a b : answer =
  match Ops.binop_fn op a b with
  | r ->
    let ans = answer_of r in
    Heap.decref r;
    ans
  | exception V.Php_fatal _ -> Fatal

(* ---- AST folder ---- *)

let literal (v : V.value) : Mphp.Ast.expr =
  match v with
  | VInt n -> Int n
  | VDbl d -> Dbl d
  | VStr s -> Str s.data
  | VBool b -> Bool b
  | _ -> Null

let ast_fold op a b : answer option =
  match Mphp.Ast_opt.fold_expr (Binop (op, literal a, literal b)) with
  | Int n -> Some (AInt n)
  | Dbl d -> Some (ADbl d)
  | Bool v -> Some (ABool v)
  | Str s -> Some (AStr s)
  | _ -> None

(* ---- HHIR and SimCPU ---- *)

let cmp_of : Ops.binop -> Ops.cmp = function
  | OpEq | OpSame -> Ceq | OpNeq | OpNSame -> Cne
  | OpLt -> Clt | OpLte -> Cle | OpGt -> Cgt | _ -> Cge

(* The typed instruction [Lower.lower_binop] picks for these operand tags
   (no generic helper), and whether each operand is first converted from
   int to double. *)
let typed_op (op : Ops.binop) (ta : V.tag) (tb : V.tag)
  : (Ir.op * bool * bool) option =
  let num = function V.TInt | V.TDbl -> true | _ -> false in
  let dbl_op = function
    | Ops.OpAdd -> Ir.AddDbl | OpSub -> SubDbl | OpMul -> MulDbl | _ -> DivDbl
  in
  let cvt = (ta = TInt, tb = TInt) in
  match op, ta, tb with
  | (OpAdd | OpSub | OpMul | OpMod | OpBitAnd | OpBitOr | OpBitXor
    | OpShl | OpShr), TInt, TInt ->
    let iop : Ir.op = match op with
      | OpAdd -> AddInt | OpSub -> SubInt | OpMul -> MulInt | OpMod -> ModInt
      | OpBitAnd -> AndInt | OpBitOr -> OrInt | OpBitXor -> XorInt
      | OpShl -> ShlInt | _ -> ShrInt
    in
    Some (iop, false, false)
  | (OpAdd | OpSub | OpMul | OpDiv), _, _
    when num ta && num tb && (ta = TDbl || tb = TDbl) ->
    Some (dbl_op op, fst cvt, snd cvt)
  | (OpEq | OpNeq | OpSame | OpNSame | OpLt | OpLte | OpGt | OpGte),
    TInt, TInt ->
    Some (CmpInt (cmp_of op), false, false)
  | (OpSame | OpNSame), TDbl, TDbl -> Some (CmpDbl (cmp_of op), false, false)
  | (OpEq | OpNeq | OpLt | OpLte | OpGt | OpGte), _, _
    when num ta && num tb ->
    Some (CmpDbl (cmp_of op), fst cvt, snd cvt)
  | (OpEq | OpNeq | OpSame | OpNSame | OpLt | OpLte | OpGt | OpGte),
    TStr, TStr ->
    Some (CmpStr (cmp_of op), false, false)
  | OpEq, TBool, TBool -> Some (EqBool, false, false)
  | _ -> None

let hunit = lazy (Hhbc.Emit.compile "function f() { return 1; }")

(* One block: two constants, optional conversions, the typed op, RetC.
   Returns the unit and the op's instruction. *)
let build (op : Ir.op) a b ~cvt_a ~cvt_b : Ir.t * Ir.instr =
  let hu = Lazy.force hunit in
  let u = Ir.create hu (Hhbc.Hunit.func hu 0) in
  let blk = Ir.new_block u in
  u.entry <- blk.b_id;
  let emit op args ty =
    let d = Ir.new_tmp u ty in
    (Ir.append u blk ~dst:(Some d) ~taken:None ~bcpc:0 op args, d)
  in
  let const (v : V.value) cvt =
    let _, t = match v with
      | VInt n -> emit (ConstInt n) [] R.int
      | VDbl d -> emit (ConstDbl d) [] R.dbl
      | VStr s -> emit (ConstStr s.data) [] R.sstr
      | VBool x -> emit (ConstBool x) [] R.bool
      | _ -> assert false
    in
    if cvt then snd (emit CvtIntToDbl [ t ] R.dbl) else t
  in
  let ta = const a cvt_a in
  let tb = const b cvt_b in
  let i, r = emit op [ ta; tb ] R.cell in
  ignore (Ir.append u blk ~dst:None ~taken:None ~bcpc:0 RetC [ r ]);
  (u, i)

let simplify_fold op a b ~cvt_a ~cvt_b : answer option =
  let u, i = build op a b ~cvt_a ~cvt_b in
  ignore (Hhir_opt.Simplify.run u);
  match i.i_op with
  | ConstInt n -> Some (AInt n)
  | ConstDbl d -> Some (ADbl d)
  | ConstBool v -> Some (ABool v)
  | _ -> None

let simcpu op a b ~cvt_a ~cvt_b : answer =
  let u, _ = build op a b ~cvt_a ~cvt_b in
  let prog = Vasm.Vlower.lower u ~weights:(Hashtbl.create 1) in
  let ra = Vasm.Regalloc.run prog ~nregs:8 in
  let pr =
    Core.Translation.prepare ~fid:0 ~srckey:0 ~kind:KLive ~ra
      ~sections:(Hashtbl.create 1) ~entries:[]
  in
  let tr =
    Option.get (Core.Translation.place ~cache:(Simcpu.Codecache.create ()) pr)
  in
  let frame = Vm.Interp.make_frame u.hunit u.func [||] VNull in
  match
    Core.Exec.run (Core.Exec.create_machine ()) tr ~entry:0 ~frame ~entry_sp:0
  with
  | XReturn v -> answer_of v
  | _ -> Alcotest.fail "typed op did not return"
  | exception V.Php_fatal _ -> Fatal

(* ---- the sweep ---- *)

let check_case op a b =
  let vop = Mphp.Ast.vm_binop op in
  let want = interp vop a b in
  let case tier =
    let operand (v : V.value) =
      match v with VDbl d -> show (ADbl d) | v -> V.debug_string v
    in
    Printf.sprintf "%s: %s %s %s" tier (operand a) (Mphp.Ast.binop_name op)
      (operand b)
  in
  let folded tier = function
    | Some got when want = Fatal || not (agree got want) ->
      Alcotest.failf "%s folds to %s, interpreter gives %s" (case tier)
        (show got) (show want)
    | _ -> ()
  in
  folded "AST" (ast_fold op a b);
  match typed_op vop (V.tag_of_value a) (V.tag_of_value b) with
  | None -> 0
  | Some (iop, cvt_a, cvt_b) ->
    folded "HHIR" (simplify_fold iop a b ~cvt_a ~cvt_b);
    let got = simcpu iop a b ~cvt_a ~cvt_b in
    if not (agree got want) then
      Alcotest.failf "%s runs to %s, interpreter gives %s" (case "SimCPU")
        (show got) (show want);
    1

let sweep () =
  let typed = ref 0 in
  List.iter
    (fun op ->
       List.iter
         (fun a -> List.iter (fun b -> typed := !typed + check_case op a b)
             edge_values)
         edge_values)
    ast_ops;
  (* every typed shape is covered: int, double, mixed, string, bool *)
  Alcotest.(check bool) "typed cases ran" true (!typed > 2000);
  Alcotest.(check (list string)) "no leaks" [] (Heap.live_allocations ())

let suite =
  ("ops", [ Alcotest.test_case "every tier agrees with the interpreter" `Quick sweep ])
