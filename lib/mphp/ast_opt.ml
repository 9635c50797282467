(** AST-level optimizations — the role of the HipHop compiler front end
    (paper §2.3): constant folding and algebraic simplification performed
    ahead of bytecode emission.  The heavier analysis (type inference,
    assertion insertion) lives in [hhbbc], mirroring the paper's migration
    of optimization from the front end to the bytecode level. *)

open Ast

module Ops = Runtime.Ops
module V = Runtime.Value

(* A literal as an immediate runtime value.  A string becomes an uncounted
   cell built here, not on the runtime heap. *)
let value : expr -> V.value = function
  | Int i -> VInt i
  | Dbl d -> VDbl d
  | Str s -> VStr { rc = V.static_rc; id = 0; data = s }
  | Bool b -> VBool b
  | _ -> invalid_arg "Ast_opt.value"

let rec fold_expr (e : expr) : expr =
  match e with
  | Int _ | Dbl _ | Str _ | Bool _ | Null | Var _ | This -> e
  | ArrayLit items ->
    ArrayLit (List.map (fun (k, v) -> (Option.map fold_expr k, fold_expr v)) items)
  | Binop (op, a, b) -> fold_binop op (fold_expr a) (fold_expr b)
  | Unop (op, a) -> fold_unop op (fold_expr a)
  | And (a, b) ->
    let a = fold_expr a in
    (match a with
     | Bool true -> fold_expr b
     | Bool false -> Bool false
     | _ -> And (a, fold_expr b))
  | Or (a, b) ->
    let a = fold_expr a in
    (match a with
     | Bool false -> fold_expr b
     | Bool true -> Bool true
     | _ -> Or (a, fold_expr b))
  | Ternary (c, t, f) when c == t ->
    (* `c ?: f` is Ternary with physically shared condition/then; preserve
       the sharing so the emitter evaluates c only once *)
    let c' = fold_expr c in
    (match c' with
     | Bool true -> c'
     | Bool false -> fold_expr f
     | _ -> Ternary (c', c', fold_expr f))
  | Ternary (c, t, f) ->
    let c = fold_expr c in
    (match c with
     | Bool true -> fold_expr t
     | Bool false -> fold_expr f
     | Int 0 -> fold_expr f
     | Int _ -> fold_expr t
     | _ -> Ternary (c, fold_expr t, fold_expr f))
  | Index (a, i) -> Index (fold_expr a, fold_expr i)
  | Prop (a, p) -> Prop (fold_expr a, p)
  | Call (f, args) -> Call (f, List.map fold_expr args)
  | MethodCall (o, m, args) -> MethodCall (fold_expr o, m, List.map fold_expr args)
  | New (c, args) -> New (c, List.map fold_expr args)
  | InstanceOf (a, c) -> InstanceOf (fold_expr a, c)
  | Assign (l, r) -> Assign (fold_lval l, fold_expr r)
  | AssignOp (op, l, r) -> AssignOp (op, fold_lval l, fold_expr r)
  | IncDec (k, l) -> IncDec (k, fold_lval l)
  | Isset l -> Isset (fold_lval l)

and fold_lval = function
  | LVar v -> LVar v
  | LIndex (b, i) -> LIndex (fold_lval b, Option.map fold_expr i)
  | LProp (e, p) -> LProp (fold_expr e, p)

and fold_binop op a b : expr =
  (* Literals fold through the interpreter's own operators
     ({!Runtime.Ops}).  Only these operand shapes fold; a fold declines
     where the operator raises, and where an int quotient is inexact. *)
  let foldable =
    match op, a, b with
    | Concat, Int _, Int _ -> false
    | Concat, (Str _ | Int _), (Str _ | Int _) -> true
    | _, Int _, Int _ -> true
    | (Add | Sub | Mul | Div), Dbl _, Dbl _ -> true
    | (Eq | Same), Str _, Str _ -> true
    | _ -> false
  in
  let folded =
    if not foldable then None
    else if op = Concat then Some (Str (Ops.concat (value a) (value b)))
    else
      match Ops.fold (Ops.binop_fn (vm_binop op)) (value a) (value b), a with
      | Some (V.VInt n), _ -> Some (Int n)
      | Some (V.VBool v), _ -> Some (Bool v)
      | Some (V.VDbl d), Dbl _ -> Some (Dbl d)
      | _ -> None
  in
  Option.value folded ~default:(Binop (op, a, b))

and fold_unop (op : unop) a : expr =
  (* As binary operators: these operand shapes fold through {!Runtime.Ops}
     and a fold declines where the operator raises.  A string cast folds
     through the string-level conversion, off the runtime heap. *)
  let foldable =
    match op, a with
    | (Neg | CastInt | CastDbl), (Int _ | Dbl _)
    | (Not | CastBool | CastInt), (Int _ | Bool _)
    | BitNot, Int _
    | CastString, (Int _ | Str _) -> true
    | _ -> false
  in
  let folded =
    if not foldable then None
    else if op = CastString then Some (Str (Ops.to_str (value a)))
    else
      match Ops.unop_fn op (value a) with
      | V.VInt n -> Some (Int n)
      | V.VDbl d -> Some (Dbl d)
      | V.VBool b -> Some (Bool b)
      | _ -> None
      | exception V.Php_fatal _ -> None
  in
  Option.value folded ~default:(Unop (op, a))

let rec fold_stmt (s : stmt) : stmt list =
  match s with
  | SExpr e -> [ SExpr (fold_expr e) ]
  | SEcho es -> [ SEcho (List.map fold_expr es) ]
  | SIf (c, t, f) ->
    (match fold_expr c with
     | Bool true -> fold_block t
     | Bool false -> fold_block f
     | c -> [ SIf (c, fold_block t, fold_block f) ])
  | SWhile (c, b) ->
    (match fold_expr c with
     | Bool false -> []
     | c -> [ SWhile (c, fold_block b) ])
  | SDo (b, c) -> [ SDo (fold_block b, fold_expr c) ]
  | SFor (i, c, u, b) ->
    [ SFor (List.map fold_expr i, Option.map fold_expr c,
            List.map fold_expr u, fold_block b) ]
  | SForeach (e, k, v, b) -> [ SForeach (fold_expr e, k, v, fold_block b) ]
  | SReturn e -> [ SReturn (Option.map fold_expr e) ]
  | SBreak | SContinue -> [ s ]
  | SThrow e -> [ SThrow (fold_expr e) ]
  | STry (b, catches) ->
    [ STry (fold_block b,
            List.map (fun (c, v, cb) -> (c, v, fold_block cb)) catches) ]
  | SSwitch (e, cases, d) ->
    [ SSwitch (fold_expr e,
               List.map (fun (v, b) -> (fold_expr v, fold_block b)) cases,
               Option.map fold_block d) ]
  | SUnset l -> [ SUnset (fold_lval l) ]

and fold_block (b : block) : block =
  List.concat_map fold_stmt b

let fold_fun (f : fun_decl) : fun_decl =
  { f with
    f_body = fold_block f.f_body;
    f_params =
      List.map (fun p -> { p with p_default = Option.map fold_expr p.p_default })
        f.f_params }

(** Fold the whole program (the hphpc pass of Fig. 1). *)
let fold_program (p : program) : program =
  List.map
    (function
      | DFun f -> DFun (fold_fun f)
      | DClass c ->
        DClass { c with
                 c_methods = List.map fold_fun c.c_methods;
                 c_props =
                   List.map (fun pr -> { pr with pr_default = fold_expr pr.pr_default })
                     c.c_props }
      | DInterface _ as d -> d)
    p
