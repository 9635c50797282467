(** Bytecode emitter: lowers the (already constant-folded) MiniPHP AST into
    HHBC (Fig. 1, "emitter").

    Evaluation-stack discipline: every expression leaves exactly one value;
    statements leave the stack at its entry depth.  Jump targets use a
    label/patch scheme resolved when the function body is finalized. *)

open Mphp.Ast
open Instr

exception Emit_error of string

let error fmt = Printf.ksprintf (fun m -> raise (Emit_error m)) fmt

type jkind =
  | JJmp
  | JJmpZ
  | JJmpNZ
  | JIterInit of int
  | JIterNext of int

type loop_ctx = {
  l_break : int;          (* label id *)
  l_continue : int;
  l_iter : int option;    (* iterator to free when breaking out *)
}

type ctx = {
  unit_ : Hunit.t;
  mutable code : Instr.t list;        (* reversed *)
  mutable len : int;
  locals : (string, int) Hashtbl.t;
  mutable local_names : string list;  (* reversed *)
  mutable nlocals : int;
  mutable niters : int;
  mutable ex : ex_entry list;         (* reversed: innermost-emitted first *)
  mutable loops : loop_ctx list;
  labels : (int, int) Hashtbl.t;      (* label id -> position *)
  mutable nlabels : int;
  mutable pending : (int * int * jkind) list;  (* pos, label, kind *)
  cls_name : string option;
}

let new_ctx unit_ cls_name = {
  unit_; code = []; len = 0;
  locals = Hashtbl.create 16; local_names = []; nlocals = 0;
  niters = 0; ex = []; loops = [];
  labels = Hashtbl.create 16; nlabels = 0; pending = [];
  cls_name;
}

let emit ctx (i : Instr.t) =
  ctx.code <- i :: ctx.code;
  ctx.len <- ctx.len + 1

let new_label ctx =
  let l = ctx.nlabels in
  ctx.nlabels <- l + 1;
  l

let bind_label ctx l = Hashtbl.replace ctx.labels l ctx.len

let emit_jump ctx kind label =
  ctx.pending <- (ctx.len, label, kind) :: ctx.pending;
  (* placeholder target; patched in finalize *)
  emit ctx (match kind with
      | JJmp -> Jmp (-1)
      | JJmpZ -> JmpZ (-1)
      | JJmpNZ -> JmpNZ (-1)
      | JIterInit id -> IterInit (id, -1)
      | JIterNext id -> IterNext (id, -1))

let local ctx name =
  match Hashtbl.find_opt ctx.locals name with
  | Some i -> i
  | None ->
    let i = ctx.nlocals in
    Hashtbl.replace ctx.locals name i;
    ctx.local_names <- name :: ctx.local_names;
    ctx.nlocals <- i + 1;
    i

let temp ctx =
  let i = ctx.nlocals in
  ctx.local_names <- Printf.sprintf "@t%d" i :: ctx.local_names;
  ctx.nlocals <- i + 1;
  i

let new_iter ctx =
  let i = ctx.niters in
  ctx.niters <- i + 1;
  i

(** Constant evaluation for defaults (parameters, properties).  The AST has
    been constant-folded, so anything non-literal here is a user error. *)
let rec const_of_expr (e : expr) : cval =
  match e with
  | Null -> CNull
  | Bool b -> CBool b
  | Int i -> CInt i
  | Dbl d -> CDbl d
  | Str s -> CStr s
  | ArrayLit items ->
    CArr (List.map
            (fun ((k : expr option), v) ->
               let ck = match k with
                 | None -> None
                 | Some (Mphp.Ast.Int i) -> Some (CKInt i)
                 | Some (Mphp.Ast.Str s) -> Some (CKStr s)
                 | Some _ -> error "array default key must be a constant"
               in
               (ck, const_of_expr v))
            items)
  | _ -> error "default value must be a constant expression"

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let rec emit_expr ctx (e : expr) : unit =
  match e with
  | Int i -> emit ctx (Instr.Int i)
  | Dbl d -> emit ctx (Instr.Dbl d)
  | Str s -> emit ctx (Instr.String s)
  | Bool true -> emit ctx True
  | Bool false -> emit ctx False
  | Null -> emit ctx Instr.Null
  | Var v -> emit ctx (CGetL (local ctx v))
  | This -> emit ctx Instr.This
  | ArrayLit items ->
    emit ctx NewArray;
    List.iter
      (fun (k, v) ->
         match k with
         | None -> emit_expr ctx v; emit ctx AddNewElemC
         | Some ke -> emit_expr ctx ke; emit_expr ctx v; emit ctx AddElemC)
      items
  | Binop (op, a, b) ->
    emit_expr ctx a; emit_expr ctx b;
    emit ctx (Instr.Binop (Mphp.Ast.vm_binop op))
  | Unop (op, a) -> emit_expr ctx a; emit ctx (Instr.Unop op)
  | And (a, b) ->
    (* short-circuit, result is a bool *)
    let l_false = new_label ctx and l_end = new_label ctx in
    emit_expr ctx a;
    emit_jump ctx JJmpZ l_false;
    emit_expr ctx b;
    emit_jump ctx JJmpZ l_false;
    emit ctx True;
    emit_jump ctx JJmp l_end;
    bind_label ctx l_false;
    emit ctx False;
    bind_label ctx l_end
  | Or (a, b) ->
    let l_true = new_label ctx and l_end = new_label ctx in
    emit_expr ctx a;
    emit_jump ctx JJmpNZ l_true;
    emit_expr ctx b;
    emit_jump ctx JJmpNZ l_true;
    emit ctx False;
    emit_jump ctx JJmp l_end;
    bind_label ctx l_true;
    emit ctx True;
    bind_label ctx l_end
  | Ternary (c, t, f) when c == t ->
    (* `c ?: f` — evaluate c once *)
    let l_end = new_label ctx in
    emit_expr ctx c;
    emit ctx Dup;
    emit_jump ctx JJmpNZ l_end;
    emit ctx PopC;
    emit_expr ctx f;
    bind_label ctx l_end
  | Ternary (c, t, f) ->
    let l_f = new_label ctx and l_end = new_label ctx in
    emit_expr ctx c;
    emit_jump ctx JJmpZ l_f;
    emit_expr ctx t;
    emit_jump ctx JJmp l_end;
    bind_label ctx l_f;
    emit_expr ctx f;
    bind_label ctx l_end
  | Index (a, i) ->
    emit_expr ctx a; emit_expr ctx i;
    emit ctx QueryM_Elem
  | Prop (a, p) ->
    emit_expr ctx a;
    emit ctx (QueryM_Prop p)
  | Call (f, args) ->
    List.iter (emit_expr ctx) args;
    (match Hunit.find_func ctx.unit_ f with
     | Some id -> emit ctx (FCall (id, List.length args))
     | None -> emit ctx (FCallBuiltin (f, List.length args)))
  | MethodCall (o, m, args) ->
    emit_expr ctx o;
    List.iter (emit_expr ctx) args;
    emit ctx (FCallM (m, List.length args))
  | New (c, args) ->
    List.iter (emit_expr ctx) args;
    emit ctx (NewObjD (c, List.length args))
  | InstanceOf (a, c) ->
    emit_expr ctx a;
    emit ctx (Instr.InstanceOf c)
  | Assign (lv, rhs) -> emit_assign ctx lv rhs
  | AssignOp (op, lv, rhs) ->
    (* desugar: lv = read(lv) op rhs *)
    emit_assign ctx lv (Binop (op, expr_of_lval lv, rhs))
  | IncDec (kind, LVar v) ->
    let op = match kind with
      | Mphp.Ast.PostInc -> Instr.PostInc | PostDec -> Instr.PostDec
      | PreInc -> Instr.PreInc | PreDec -> Instr.PreDec
    in
    emit ctx (IncDecL (local ctx v, op))
  | IncDec (kind, LProp (o, p)) ->
    let op = match kind with
      | Mphp.Ast.PostInc -> Instr.PostInc | PostDec -> Instr.PostDec
      | PreInc -> Instr.PreInc | PreDec -> Instr.PreDec
    in
    emit_expr ctx o;
    emit ctx (IncDecM_Prop (p, op))
  | IncDec (kind, lv) ->
    (* array-element inc/dec: desugar through a temp *)
    let one : expr = Mphp.Ast.Int 1 in
    let op = match kind with
      | Mphp.Ast.PreInc | PostInc -> Add
      | PreDec | PostDec -> Sub
    in
    (match kind with
     | PreInc | PreDec ->
       emit_assign ctx lv (Binop (op, expr_of_lval lv, one))
     | PostInc | PostDec ->
       (* result is the old value *)
       let t = temp ctx in
       emit_expr ctx (expr_of_lval lv);
       emit ctx (SetL t);
       emit ctx PopC;
       emit_assign ctx lv (Binop (op, expr_of_lval lv, one));
       emit ctx PopC;
       emit ctx (PushL t))
  | Isset lv ->
    (match lv with
     | LVar v -> emit ctx (IssetL (local ctx v))
     | LIndex (base, Some i) ->
       emit_expr ctx (expr_of_lval base);
       emit_expr ctx i;
       emit ctx IssetM_Elem
     | LIndex (_, None) -> error "isset($a[]) is invalid"
     | LProp (o, p) ->
       emit_expr ctx o;
       emit ctx (IssetM_Prop p))

(** Convert an lvalue back to its read expression (for desugaring
    compound assignments and read-modify-write sequences). *)
and expr_of_lval = function
  | LVar v -> Var v
  | LIndex (b, Some i) -> Index (expr_of_lval b, i)
  | LIndex (_, None) -> error "cannot read from append target"
  | LProp (o, p) -> Prop (o, p)

(** Emit [lv = rhs], leaving the assigned value on the stack. *)
and emit_assign ctx (lv : lval) (rhs : expr) : unit =
  match lv with
  | LVar v ->
    emit_expr ctx rhs;
    emit ctx (SetL (local ctx v))
  | LIndex (LVar a, Some i) ->
    emit_expr ctx i;
    emit_expr ctx rhs;
    emit ctx (SetM_ElemL (local ctx a))
  | LIndex (LVar a, None) ->
    emit_expr ctx rhs;
    emit ctx (SetM_NewElemL (local ctx a))
  | LIndex (inner, idx) ->
    (* nested write: pull the inner container into a temp, mutate it, and
       write it back.  With COW value semantics this matches PHP. *)
    let t = temp ctx in
    emit_expr ctx (expr_of_lval inner);
    emit ctx (SetL t);
    emit ctx PopC;
    (* mutate the temp *)
    (match idx with
     | Some i ->
       emit_expr ctx i;
       emit_expr ctx rhs;
       emit ctx (SetM_ElemL t)
     | None ->
       emit_expr ctx rhs;
       emit ctx (SetM_NewElemL t));
    (* write the (possibly COW-replaced) container back; result value stays *)
    let t2 = temp ctx in
    emit ctx (SetL t2);
    emit ctx PopC;
    emit ctx (PushL t);
    emit_assign_value_on_stack ctx inner;
    emit ctx PopC;
    emit ctx (PushL t2)
  | LProp (o, p) ->
    emit_expr ctx o;
    emit_expr ctx rhs;
    emit ctx (SetM_Prop p)

(** Assign the value currently on top of the stack to [lv]; leaves the value
    on the stack (like SetL). *)
and emit_assign_value_on_stack ctx (lv : lval) : unit =
  match lv with
  | LVar v -> emit ctx (SetL (local ctx v))
  | LProp (o, p) ->
    (* stack: v.  need obj under v: evaluate obj, swap via temp *)
    let t = temp ctx in
    emit ctx (SetL t);
    emit ctx PopC;
    emit_expr ctx o;
    emit ctx (PushL t);
    emit ctx (SetM_Prop p)
  | LIndex (LVar a, Some i) ->
    let t = temp ctx in
    emit ctx (SetL t);
    emit ctx PopC;
    emit_expr ctx i;
    emit ctx (PushL t);
    emit ctx (SetM_ElemL (local ctx a))
  | LIndex (LVar a, None) ->
    emit ctx (SetM_NewElemL (local ctx a))
  | LIndex _ -> error "assignment nesting too deep"

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let rec emit_stmt ctx (s : stmt) : unit =
  match s with
  | SExpr e ->
    emit_expr ctx e;
    emit ctx PopC
  | SEcho es ->
    List.iter (fun e -> emit_expr ctx e; emit ctx Print) es
  | SIf (c, t, []) ->
    let l_end = new_label ctx in
    emit_expr ctx c;
    emit_jump ctx JJmpZ l_end;
    emit_block ctx t;
    bind_label ctx l_end
  | SIf (c, t, f) ->
    let l_else = new_label ctx and l_end = new_label ctx in
    emit_expr ctx c;
    emit_jump ctx JJmpZ l_else;
    emit_block ctx t;
    emit_jump ctx JJmp l_end;
    bind_label ctx l_else;
    emit_block ctx f;
    bind_label ctx l_end
  | SWhile (c, body) ->
    let l_cond = new_label ctx and l_end = new_label ctx in
    bind_label ctx l_cond;
    emit_expr ctx c;
    emit_jump ctx JJmpZ l_end;
    ctx.loops <- { l_break = l_end; l_continue = l_cond; l_iter = None } :: ctx.loops;
    emit_block ctx body;
    ctx.loops <- List.tl ctx.loops;
    emit_jump ctx JJmp l_cond;
    bind_label ctx l_end
  | SDo (body, c) ->
    let l_body = new_label ctx and l_cont = new_label ctx and l_end = new_label ctx in
    bind_label ctx l_body;
    ctx.loops <- { l_break = l_end; l_continue = l_cont; l_iter = None } :: ctx.loops;
    emit_block ctx body;
    ctx.loops <- List.tl ctx.loops;
    bind_label ctx l_cont;
    emit_expr ctx c;
    emit_jump ctx JJmpNZ l_body;
    bind_label ctx l_end
  | SFor (inits, cond, updates, body) ->
    List.iter (fun e -> emit_expr ctx e; emit ctx PopC) inits;
    let l_cond = new_label ctx and l_cont = new_label ctx and l_end = new_label ctx in
    bind_label ctx l_cond;
    (match cond with
     | Some c ->
       emit_expr ctx c;
       emit_jump ctx JJmpZ l_end
     | None -> ());
    ctx.loops <- { l_break = l_end; l_continue = l_cont; l_iter = None } :: ctx.loops;
    emit_block ctx body;
    ctx.loops <- List.tl ctx.loops;
    bind_label ctx l_cont;
    List.iter (fun e -> emit_expr ctx e; emit ctx PopC) updates;
    emit_jump ctx JJmp l_cond;
    bind_label ctx l_end
  | SForeach (coll, key, value, body) ->
    let it = new_iter ctx in
    let l_kv = new_label ctx and l_cont = new_label ctx and l_end = new_label ctx in
    emit_expr ctx coll;
    emit_jump ctx (JIterInit it) l_end;
    bind_label ctx l_kv;
    emit ctx (IterKV (it, Option.map (local ctx) key, local ctx value));
    ctx.loops <- { l_break = l_end; l_continue = l_cont; l_iter = Some it } :: ctx.loops;
    emit_block ctx body;
    ctx.loops <- List.tl ctx.loops;
    bind_label ctx l_cont;
    emit_jump ctx (JIterNext it) l_kv;
    bind_label ctx l_end
  | SReturn e ->
    (match e with
     | Some e -> emit_expr ctx e
     | None -> emit ctx Instr.Null);
    (* free any live iterators before leaving the frame *)
    List.iter (fun l -> match l.l_iter with
        | Some it -> emit ctx (IterFree it)
        | None -> ()) ctx.loops;
    emit ctx RetC
  | SBreak ->
    (match ctx.loops with
     | [] -> error "break outside of loop"
     | l :: _ ->
       (match l.l_iter with
        | Some it -> emit ctx (IterFree it)
        | None -> ());
       emit_jump ctx JJmp l.l_break)
  | SContinue ->
    (match ctx.loops with
     | [] -> error "continue outside of loop"
     | l :: _ -> emit_jump ctx JJmp l.l_continue)
  | SThrow e ->
    emit_expr ctx e;
    emit ctx Throw
  | STry (body, catches) ->
    let l_end = new_label ctx in
    let start = ctx.len in
    emit_block ctx body;
    let end_ = ctx.len in
    emit_jump ctx JJmp l_end;
    let entries =
      List.map
        (fun (cls, var, cbody) ->
           let handler = ctx.len in
           emit_block ctx cbody;
           emit_jump ctx JJmp l_end;
           { ex_start = start; ex_end = end_; ex_handler = handler;
             ex_class = cls; ex_local = local ctx var })
        catches
    in
    (* innermost entries were already recorded while emitting [body]; ours
       come after them, giving inner-to-outer search order *)
    ctx.ex <- ctx.ex @ entries;
    bind_label ctx l_end
  | SSwitch (scrut, cases, default) ->
    let t = temp ctx in
    emit_expr ctx scrut;
    emit ctx (SetL t);
    emit ctx PopC;
    let l_end = new_label ctx in
    let case_labels = List.map (fun _ -> new_label ctx) cases in
    let l_default = new_label ctx in
    (* comparison chain *)
    List.iter2
      (fun (v, _) l ->
         emit ctx (CGetL t);
         emit_expr ctx v;
         emit ctx (Instr.Binop OpEq);
         emit_jump ctx JJmpNZ l)
      cases case_labels;
    emit_jump ctx JJmp l_default;
    (* bodies with fallthrough; break jumps to l_end *)
    ctx.loops <- { l_break = l_end; l_continue = l_end; l_iter = None } :: ctx.loops;
    List.iter2
      (fun (_, body) l ->
         bind_label ctx l;
         emit_block ctx body)
      cases case_labels;
    bind_label ctx l_default;
    (match default with
     | Some body -> emit_block ctx body
     | None -> ());
    ctx.loops <- List.tl ctx.loops;
    bind_label ctx l_end;
    emit ctx (UnsetL t)
  | SUnset lv ->
    (match lv with
     | LVar v -> emit ctx (UnsetL (local ctx v))
     | LIndex (LVar a, Some i) ->
       emit_expr ctx i;
       emit ctx (UnsetM_ElemL (local ctx a))
     | _ -> error "unsupported unset target")

and emit_block ctx (b : block) : unit =
  List.iter (emit_stmt ctx) b

(* ------------------------------------------------------------------ *)
(* Functions, classes, program                                         *)
(* ------------------------------------------------------------------ *)

let finalize ctx : Instr.t array * ex_entry list =
  (* implicit `return null` for falling off the end *)
  emit ctx Instr.Null;
  emit ctx RetC;
  let code = Array.of_list (List.rev ctx.code) in
  List.iter
    (fun (pos, label, kind) ->
       let target =
         match Hashtbl.find_opt ctx.labels label with
         | Some t -> t
         | None -> error "unbound label"
       in
       code.(pos) <- (match kind with
           | JJmp -> Jmp target
           | JJmpZ -> JmpZ target
           | JJmpNZ -> JmpNZ target
           | JIterInit id -> IterInit (id, target)
           | JIterNext id -> IterNext (id, target)))
    ctx.pending;
  (code, ctx.ex)

let emit_fun (u : Hunit.t) ~(id : int) ~(name : string) ~(cls : string option)
    (f : fun_decl) : func =
  let ctx = new_ctx u cls in
  (* parameters occupy the first local slots, in order *)
  let params =
    List.map
      (fun p ->
         ignore (local ctx p.p_name);
         { pi_name = p.p_name;
           pi_hint = p.p_hint;
           pi_default = Option.map const_of_expr p.p_default })
      f.f_params
  in
  emit_block ctx f.f_body;
  let code, ex = finalize ctx in
  { fn_id = id;
    fn_name = name;
    fn_params = Array.of_list params;
    fn_num_locals = ctx.nlocals;
    fn_local_names = Array.of_list (List.rev ctx.local_names);
    fn_num_iters = ctx.niters;
    fn_stack_max = Step.max_stack_depth code ex;
    fn_params_unhinted =
      List.for_all (fun p -> p.pi_hint = None) params;
    fn_body = code;
    fn_ex_table = ex;
    fn_cls = cls;
    fn_flat = FlatNone }

(** Compile a whole program into a unit.  Performs the AST constant-folding
    pass first (the hphpc role), then emits every function and method. *)
let emit_program (prog : program) : Hunit.t =
  let prog = Mphp.Ast_opt.fold_program prog in
  let u = Hunit.create () in
  (* pass 1: assign function ids so calls can be resolved directly *)
  let pending = ref [] in
  let next_id = ref 0 in
  let reserve name cls f =
    let id = !next_id in
    incr next_id;
    Hashtbl.replace u.func_by_name name id;
    pending := (id, name, cls, f) :: !pending
  in
  List.iter
    (function
      | DFun f -> reserve f.f_name None f
      | DClass c ->
        List.iter
          (fun m -> reserve (c.c_name ^ "::" ^ m.f_name) (Some c.c_name) m)
          c.c_methods
      | DInterface _ -> ())
    prog;
  let pending = List.rev !pending in
  (* pass 2: emit bodies *)
  let funcs =
    List.map (fun (id, name, cls, f) -> emit_fun u ~id ~name ~cls f) pending
  in
  u.functions <- Array.of_list funcs;
  (* classes and interfaces *)
  List.iter
    (function
      | DFun _ -> ()
      | DClass c ->
        let methods =
          List.map
            (fun m ->
               let fid = Hashtbl.find u.func_by_name (c.c_name ^ "::" ^ m.f_name) in
               (m.f_name, fid))
            c.c_methods
        in
        let props =
          List.map (fun p -> (p.pr_name, const_of_expr p.pr_default)) c.c_props
        in
        u.classes <- u.classes @ [ { Hunit.ci_name = c.c_name;
                                     ci_parent = c.c_parent;
                                     ci_implements = c.c_implements;
                                     ci_props = props;
                                     ci_methods = methods } ]
      | DInterface (n, parents) ->
        u.interfaces <- u.interfaces @ [ (n, parents) ])
    prog;
  u

(** Convenience: parse + fold + emit. *)
let compile ?(src_name = "<input>") (src : string) : Hunit.t =
  emit_program (Mphp.Parser.parse_program ~src_name src)
