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
    inhabits must admit it.  The step sweep does the same for every
    opcode's {!Hhbc.Step}: each pushed value, each local and the stack
    depth the interpreter leaves must agree with the step's. *)

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
    Core.Exec.run (Core.Exec.create_machine ()) tr.tr_prog ~entry:0 ~frame
      ~entry_sp:0
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

(* ---- every opcode's step ---- *)

module I = Hhbc.Instr

let step_src = {|
  class C {
    public $p = 1;
    function m() { return $this->p; }
  }
  function id($x) { return $x; }
|}

(* The operands the edge values hold none of, for the member, array,
   iterator and object opcodes: an empty, a packed and a mixed array, and
   an object. *)
let containers () : V.value list =
  let mixed =
    Varray.of_list [ (V.KStr "k", V.VInt 1); (V.KInt 7, static "v") ]
  in
  [ Heap.new_arr (); V.VArr (Varray.of_values [ V.VInt 1; static "b" ]);
    V.VArr mixed ]

(* Builtins run in time and space linear in an int argument (range,
   str_repeat, str_pad, number_format), so their operands leave out the
   edge values that convert to huge ints. *)
let small (v : V.value) =
  match v with
  | VInt n -> n >= -64 && n <= 64
  | VDbl d -> Float.is_integer d && Float.abs d <= 64.
  | _ -> true

(* Every builtin {!Hhbc.Optype.builtin} names. *)
let builtins = [
  "count"; "sizeof"; "strlen"; "ord"; "intdiv"; "intval"; "array_sum";
  "sqrt"; "floor"; "ceil"; "round"; "floatval"; "doubleval"; "substr";
  "str_repeat"; "strrev"; "strtoupper"; "strtolower"; "trim"; "chr";
  "implode"; "join"; "strval"; "gettype"; "get_class"; "number_format";
  "var_dump_str"; "sprintf"; "str_pad"; "ucfirst"; "lcfirst"; "explode";
  "array_keys"; "array_values"; "array_reverse"; "sorted"; "range";
  "array_merge"; "array_slice"; "array_map"; "array_filter"; "usorted";
  "str_split"; "str_contains"; "is_int"; "is_integer"; "is_long";
  "is_float"; "is_double"; "is_string"; "is_bool"; "is_null"; "is_array";
  "is_object"; "is_numeric"; "in_array"; "array_key_exists"; "boolval";
  "mt_rand"; "rand"; "strpos" ]

(* One case: a straight-line body (a prefix, then the opcode under test),
   a pool of values for each stack operand (bottom first), and a pool for
   local 0.  Local 1 starts unset. *)
type case = {
  body : I.t list;
  stack : V.value list list;
  local : V.value list;
}

let cases ~(fcall : int) ~(obj : V.value) : case list =
  let unset = [ V.VUninit ] in
  let values = edge_values and locals = V.VUninit :: edge_values in
  let extras = containers () @ [ obj ] in
  let all = edge_values @ extras in
  let op ?(stack = []) ?(local = unset) i = { body = [ i ]; stack; local } in
  let arrays = List.filter (function V.VArr _ -> true | _ -> false) extras in
  let iter i = { body = [ I.IterInit (0, 2); i ]; stack = [ arrays ]; local = unset } in
  let args n pool = List.init n (fun _ -> pool) in
  List.map op
    [ I.Int 1; Dbl 1.5; String "s"; True; False; Null; NewArray; NewObjD ("C", 0);
      This; Nop; Jmp 0 ]
  @ [ op AddNewElemC ~stack:[ all; all ];
      op AddElemC ~stack:[ all; all; all ] ]
  @ List.map (op ~local:(locals @ extras))
    ([ I.CGetL 0; PushL 0; IssetL 0; UnsetL 0 ]
     @ List.map (fun o -> I.IncDecL (0, o)) incdec_ops)
  @ [ op (SetL 0) ~stack:[ values ] ~local:locals ]
  @ List.map (op ~stack:[ all ]) [ I.PopC; Dup; JmpZ 0; JmpNZ 0; RetC; Throw; Print ]
  @ List.map (fun o -> op (Binop (Mphp.Ast.vm_binop o)) ~stack:[ values; values ]) ast_ops
  @ List.map (fun o -> op (Unop o) ~stack:[ values ]) unops
  @ [ op (InstanceOf "C") ~stack:[ all ];
      op (FCall (fcall, 1)) ~stack:[ all ];
      op (FCallM ("m", 0)) ~stack:[ all ] ]
  @ List.concat_map
    (fun name ->
       let pool = List.filter small all in
       List.map (fun n -> op (FCallBuiltin (name, n)) ~stack:(args n pool)) [ 0; 1; 2 ])
    builtins
  @ [ op QueryM_Elem ~stack:[ all; all ];
      op (QueryM_Prop "p") ~stack:[ all ];
      op (SetM_ElemL 0) ~stack:[ all; all ] ~local:(locals @ extras);
      op (SetM_NewElemL 0) ~stack:[ all ] ~local:(locals @ extras);
      op (UnsetM_ElemL 0) ~stack:[ all ] ~local:(locals @ extras);
      op (SetM_Prop "p") ~stack:[ all; all ];
      op IssetM_Elem ~stack:[ all; all ];
      op (IssetM_Prop "p") ~stack:[ all ] ]
  @ List.map (fun o -> op (IncDecM_Prop ("p", o)) ~stack:[ all ]) incdec_ops
  @ [ op (IterInit (0, 1)) ~stack:[ all ];
      iter (IterKV (0, Some 1, 0)); iter (IterKV (0, None, 0));
      iter (IterNext (0, 0)); iter (IterFree 0) ]

(* every choice of one element from each list *)
let rec product = function
  | [] -> [ [] ]
  | xs :: rest ->
    let tails = product rest in
    List.concat_map (fun x -> List.map (fun t -> x :: t) tails) xs

(* Run [body] in the interpreter, one handler after another, from a frame
   whose stack holds [operands] (bottom first) and whose local 0 holds
   [local].  Returns the frame, or [None] where the body raises or
   leaves the straight line. *)
let run_body u (f : I.func) ~this_ body operands local =
  List.iter Heap.incref (this_ :: local :: operands);
  let fr = Vm.Interp.make_frame u f [||] this_ in
  fr.locals.(0) <- local;
  List.iter (Vm.Interp.push fr) operands;
  let rec go pc = function
    | [] -> Some fr
    | i :: rest ->
      let next = Vm.Interp.mk_handler f pc i fr in
      if rest = [] || next = pc + 1 then go (pc + 1) rest else None
  in
  try go 0 body with V.Php_fatal _ | Vm.Interp.Php_exception _ -> None

let step_sweep () =
  let u = Vm.Loader.load step_src in
  let run_body = run_body u in
  let fcall = Option.get (Hhbc.Hunit.find_func u "id") in
  let obj = Vm.Interp.constructor_for "C" u [||] in
  let checks = ref 0 in
  List.iter
    (fun c ->
       let f : I.func =
         { fn_id = Hhbc.Hunit.num_funcs u; fn_name = "C::step";
           fn_params = [||]; fn_num_locals = 2; fn_local_names = [| "x"; "k" |];
           fn_num_iters = 1; fn_stack_max = 4; fn_params_unhinted = true;
           fn_body = Array.of_list c.body; fn_ex_table = []; fn_cls = Some "C";
           fn_flat = I.FlatNone }
       in
       List.iter
         (fun local ->
            List.iter
              (fun operands ->
                 match run_body f ~this_:obj c.body operands local with
                 | None -> ()
                 | Some fr ->
                   let what tl ts =
                     Printf.sprintf "%s on [%s] with $x = %s, at [%s] with $x : %s"
                       (String.concat "; " (List.map Hhbc.Disasm.instr_to_string c.body))
                       (String.concat ", " (List.map operand operands))
                       (operand local)
                       (String.concat ", " (List.map R.to_string ts))
                       (R.to_string tl)
                   in
                   List.iter
                     (fun (tl, ts) ->
                        (* the step, from the operand types and local 0's *)
                        let below = ref (List.rev ts) and pops = ref 0 in
                        let locals = [| tl; R.uninit |] in
                        let m =
                          Hhbc.Step.typed
                            ~underflow:(fun () ->
                                incr pops;
                                match !below with
                                | t :: rest -> below := rest; t
                                | [] -> Alcotest.failf "%s: pops too many" (what tl ts))
                            ~local:(fun l -> locals.(l))
                            ~set_local:(fun l t -> locals.(l) <- t)
                        in
                        List.iter (Hhbc.Step.step m ~cls:f.fn_cls) c.body;
                        incr checks;
                        let depth = List.length operands - !pops + List.length m.stack in
                        if fr.sp <> depth then
                          Alcotest.failf "%s: the step leaves depth %d, the interpreter %d"
                            (what tl ts) depth fr.sp;
                        List.iteri
                          (fun j t ->
                             let v = fr.stack.(fr.sp - 1 - j) in
                             if not (R.value_matches t v) then
                               Alcotest.failf "%s: the step pushes %s, the interpreter %s"
                                 (what tl ts) (R.to_string t) (V.debug_string v))
                          m.stack;
                        Array.iteri
                          (fun l t ->
                             let v = fr.locals.(l) in
                             if not (R.value_matches t v) then
                               Alcotest.failf "%s: the step types local %d %s, the interpreter holds %s"
                                 (what tl ts) l (R.to_string t) (V.debug_string v))
                          locals)
                     (List.concat_map
                        (fun tl -> List.map (fun ts -> (tl, ts))
                            (product (List.map types_of operands)))
                        (types_of local));
                   Vm.Interp.teardown fr)
              (product c.stack))
         c.local)
    (cases ~fcall ~obj);
  Alcotest.(check bool) "step checks ran" true (!checks > 100_000);
  (* the bodies that raise leak the operands they had popped, and [Print]
     wrote to the output buffer *)
  Heap.reset ();
  Vm.Output.reset ()

let suite =
  ("ops", [ Alcotest.test_case "every tier agrees with the interpreter" `Quick sweep;
            Alcotest.test_case "unary operators agree across tiers" `Quick unary_sweep;
            Alcotest.test_case "result types admit every value" `Quick type_sweep;
            Alcotest.test_case "every opcode's step admits the interpreter's" `Quick step_sweep ])
