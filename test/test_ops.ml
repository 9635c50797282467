(** Operator agreement across tiers, and the soundness of the operators'
    result types.

    Every tier computes MiniPHP's operators through {!Runtime.Ops}.  This
    test checks the edges: for every binary and unary operator and every
    edge operand value, the AST constant folder, a one-block HHIR
    Simplify, and SimCPU executing the typed instructions that lowering
    picks for those tags each agree with the interpreter — or, for the
    two folders, decline to fold.  The interpreter's answer is
    {!Runtime.Ops.binop_fn} or {!Runtime.Ops.unop_fn}, the functions its
    handlers call.

    The static rules of {!Hhbc.Optype}, which hhbbc and region selection
    trust, are swept against the same values: wherever an operator
    yields a value, the rule's type for any operand type that value
    inhabits must admit it. *)

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

(* The answer of an owned result, which is released. *)
let take (v : V.value) : answer =
  let a = answer_of v in
  Heap.decref v;
  a

let show = function
  | AInt n -> string_of_int n
  | ADbl d -> Printf.sprintf "%F" d
  | ABool b -> string_of_bool b
  | AStr s -> Printf.sprintf "%S" s
  | Fatal -> "fatal"

let operand (v : V.value) =
  match v with VDbl d -> show (ADbl d) | v -> V.debug_string v

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
  | r -> take r
  | exception V.Php_fatal _ -> Fatal

(* ---- AST folder ---- *)

let literal (v : V.value) : Mphp.Ast.expr =
  match v with
  | VInt n -> Int n
  | VDbl d -> Dbl d
  | VStr s -> Str s.data
  | VBool b -> Bool b
  | _ -> Null

let ast_fold (e : Mphp.Ast.expr) : answer option =
  match Mphp.Ast_opt.fold_expr e with
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

(* One block: a constant per operand, then a chain of steps, each an op
   applied to the previous result and extra constants; the block returns
   the last result.  Returns the unit and the last step's instruction. *)
let build (operands : (V.value * (Ir.op * V.value list * R.t) list) list)
    (combine : (Ir.op * R.t) option) : Ir.t * Ir.instr option =
  let hu = Lazy.force hunit in
  let u = Ir.create hu (Hhbc.Hunit.func hu 0) in
  let blk = Ir.new_block u in
  u.entry <- blk.b_id;
  let last = ref None in
  let emit op args ty =
    let d = Ir.new_tmp u ty in
    last := Some (Ir.append u blk ~dst:(Some d) ~taken:None ~bcpc:0 op args);
    d
  in
  let const (v : V.value) =
    match v with
    | VInt n -> emit (ConstInt n) [] R.int
    | VDbl d -> emit (ConstDbl d) [] R.dbl
    | VStr s -> emit (ConstStr s.data) [] R.sstr
    | VBool x -> emit (ConstBool x) [] R.bool
    | VNull -> emit ConstNull [] R.init_null
    | _ -> assert false
  in
  let chain (v, steps) =
    let t = const v in
    last := None;
    List.fold_left
      (fun t (op, extra, ty) -> emit op (t :: List.map const extra) ty)
      t steps
  in
  let args = List.map chain operands in
  let r = match combine with
    | Some (op, ty) -> emit op args ty
    | None -> List.hd args
  in
  ignore (Ir.append u blk ~dst:None ~taken:None ~bcpc:0 RetC [ r ]);
  (u, !last)

(* A binary op's block: each operand optionally converted from int. *)
let binop_block op a b ~cvt_a ~cvt_b =
  let operand v cvt = (v, if cvt then [ (Ir.CvtIntToDbl, [], R.dbl) ] else []) in
  build [ operand a cvt_a; operand b cvt_b ] (Some (op, R.cell))

let simplify_fold (u, (i : Ir.instr option)) : answer option =
  ignore (Hhir_opt.Simplify.run u);
  match Option.map (fun (i : Ir.instr) -> i.i_op) i with
  | Some (ConstInt n) -> Some (AInt n)
  | Some (ConstDbl d) -> Some (ADbl d)
  | Some (ConstBool v) -> Some (ABool v)
  | _ -> None

let simcpu (u, _) : answer =
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
  | XReturn v -> take v
  | _ -> Alcotest.fail "typed op did not return"
  | exception V.Php_fatal _ -> Fatal

(* ---- the sweeps ---- *)

let check_against ~want ~case ~ast ~typed =
  let folded tier = function
    | Some got when want = Fatal || not (agree got want) ->
      Alcotest.failf "%s folds to %s, interpreter gives %s" (case tier)
        (show got) (show want)
    | _ -> ()
  in
  folded "AST" ast;
  match typed with
  | None -> 0
  | Some blk ->
    folded "HHIR" (simplify_fold (blk ()));
    let got = simcpu (blk ()) in
    if not (agree got want) then
      Alcotest.failf "%s runs to %s, interpreter gives %s" (case "SimCPU")
        (show got) (show want);
    1

let check_case op a b =
  let vop = Mphp.Ast.vm_binop op in
  let case tier =
    Printf.sprintf "%s: %s %s %s" tier (operand a) (Mphp.Ast.binop_name op)
      (operand b)
  in
  check_against ~want:(interp vop a b) ~case
    ~ast:(ast_fold (Binop (op, literal a, literal b)))
    ~typed:(Option.map
              (fun (iop, cvt_a, cvt_b) () -> binop_block iop a b ~cvt_a ~cvt_b)
              (typed_op vop (V.tag_of_value a) (V.tag_of_value b)))

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

let unops : Ops.unop list =
  [ Not; Neg; BitNot; CastInt; CastDbl; CastString; CastBool ]

let unop_name (op : Ops.unop) =
  Hhbc.Instr.opcode_names.(Hhbc.Instr.opcode_id (Unop op))

(* The steps [Lower] picks for a unary op on a value of this tag (after
   [to_bool] for the truthiness ops); a non-number's negation takes the
   generic helper. *)
let lowered_unop (op : Ops.unop) (tag : V.tag) =
  let to_bool = if tag = TBool then [] else [ (Ir.ConvToBool, [], R.bool) ] in
  let to_int = if tag = TInt then [] else [ (Ir.ConvToInt, [], R.int) ] in
  match op, tag with
  | Not, _ -> to_bool @ [ (Ir.NotBool, [], R.bool) ]
  | CastBool, _ -> to_bool
  | Neg, TInt -> [ (Ir.NegInt, [], R.int) ]
  | Neg, TDbl -> [ (Ir.NegDbl, [], R.dbl) ]
  | Neg, _ -> [ (Ir.GenUnop Neg, [], R.num) ]
  | BitNot, _ -> to_int @ [ (Ir.XorInt, [ V.VInt (-1) ], R.int) ]
  | CastInt, _ -> to_int
  | CastDbl, TDbl -> []
  | CastDbl, TInt -> [ (Ir.CvtIntToDbl, [], R.dbl) ]
  | CastDbl, _ -> [ (Ir.ConvToDbl, [], R.dbl) ]
  | CastString, TStr -> []
  | CastString, _ -> [ (Ir.ConvToStr, [], R.cstr) ]

let check_unop op v =
  let want =
    match Ops.unop_fn op v with
    | r -> take r
    | exception V.Php_fatal _ -> Fatal
  in
  let case tier = Printf.sprintf "%s: %s %s" tier (unop_name op) (operand v) in
  check_against ~want ~case ~ast:(ast_fold (Unop (op, literal v)))
    ~typed:(Some (fun () ->
        build [ (v, lowered_unop op (V.tag_of_value v)) ] None))

let unary_sweep () =
  let typed = ref 0 in
  List.iter
    (fun op -> List.iter (fun v -> typed := !typed + check_unop op v) edge_values)
    unops;
  Alcotest.(check int) "every case ran on SimCPU" (7 * 22) !typed;
  Alcotest.(check (list string)) "no leaks" [] (Heap.live_allocations ())

(* ---- result types ---- *)

(* The operand types a value inhabits: its own, up through the wider
   points the analyses reach. *)
let types_of (v : V.value) : R.t list =
  let t = R.of_value v in
  t :: List.filter (R.subtype t) [ R.num; R.init_cell; R.cell ]

(* [Some (f ())] where the operator yields a value *)
let yields f = match f () with r -> Some r | exception V.Php_fatal _ -> None

let incdec_ops : Ops.incdec_op list = [ PostInc; PostDec; PreInc; PreDec ]

let type_sweep () =
  let checks = ref 0 in
  let check ~what (ty : R.t) (r : V.value) =
    incr checks;
    if not (R.value_matches ty r) then
      Alcotest.failf "%s: the rule says %s, the operator gives %s" (what ())
        (R.to_string ty) (V.debug_string r)
  in
  List.iter
    (fun op ->
       let vop = Mphp.Ast.vm_binop op in
       List.iter
         (fun a ->
            List.iter
              (fun b ->
                 match yields (fun () -> Ops.binop_fn vop a b) with
                 | None -> ()
                 | Some r ->
                   List.iter
                     (fun ta ->
                        List.iter
                          (fun tb ->
                             check (Hhbc.Optype.binop vop ta tb) r ~what:(fun () ->
                                 Printf.sprintf "%s %s %s at %s, %s" (operand a)
                                   (Mphp.Ast.binop_name op) (operand b)
                                   (R.to_string ta) (R.to_string tb)))
                          (types_of b))
                     (types_of a);
                   Heap.decref r)
              edge_values)
         edge_values)
    ast_ops;
  List.iter
    (fun op ->
       List.iter
         (fun v ->
            match yields (fun () -> Ops.unop_fn op v) with
            | None -> ()
            | Some r ->
              List.iter
                (fun t ->
                   check (Hhbc.Optype.unop op t) r ~what:(fun () ->
                       Printf.sprintf "%s %s at %s" (unop_name op) (operand v)
                         (R.to_string t)))
                (types_of v);
              Heap.decref r)
         edge_values)
    unops;
  List.iter
    (fun op ->
       (* a local may be unset, which reads as null; a property may not *)
       List.iter
         (fun v ->
            let old = if v = V.VUninit then V.VNull else v in
            match yields (fun () -> Ops.incdec op old) with
            | None -> ()
            | Some (nv, result) ->
              let what t which () =
                Printf.sprintf "%s %s at %s: %s" (Hhbc.Disasm.incdec_name op)
                  (operand v)
                  (R.to_string t) which
              in
              List.iter
                (fun t ->
                   let nt, rt = Hhbc.Optype.incdec op t in
                   check nt nv ~what:(what t "the new local");
                   check rt result ~what:(what t "the result"))
                (types_of v);
              if v <> V.VUninit then
                check (Hhbc.Optype.incdec_prop op) result
                  ~what:(what R.init_cell "the property result"))
         (V.VUninit :: edge_values))
    incdec_ops;
  Alcotest.(check bool) "type checks ran" true (!checks > 20_000);
  Alcotest.(check (list string)) "no leaks" [] (Heap.live_allocations ())

let suite =
  ("ops", [ Alcotest.test_case "every tier agrees with the interpreter" `Quick sweep;
            Alcotest.test_case "unary operators agree across tiers" `Quick unary_sweep;
            Alcotest.test_case "result types admit every value" `Quick type_sweep ])
