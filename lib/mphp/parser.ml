(** Recursive-descent parser for MiniPHP with precedence climbing.

    The grammar is a practical subset of PHP/Hack: functions, classes with
    single inheritance and interfaces, the usual statements, and expressions
    with PHP's operator precedence.  [$a[] = e] (append) parses via the
    internal {!Ast.expr} shape produced by [expr_to_lval]. *)

open Ast
open Lexer

exception Parse_error of string * int

type st = {
  lx : lexed;
  mutable i : int;
}

let err st msg =
  let line = if st.i < Array.length st.lx.lines then st.lx.lines.(st.i) else 0 in
  raise (Parse_error (Printf.sprintf "%s: %s (at %s)" st.lx.src_name msg
                        (token_to_string st.lx.toks.(min st.i (Array.length st.lx.toks - 1)))
                     , line))

let cur st = st.lx.toks.(st.i)
let advance st = st.i <- st.i + 1

let eat_punct st p =
  match cur st with
  | TPunct q when q = p -> advance st
  | _ -> err st (Printf.sprintf "expected '%s'" p)

let try_punct st p =
  match cur st with
  | TPunct q when q = p -> advance st; true
  | _ -> false

let peek_punct st p =
  match cur st with TPunct q -> q = p | _ -> false

let eat_ident st =
  match cur st with
  | TIdent s -> advance st; s
  | _ -> err st "expected identifier"

let try_kw st kw =
  match cur st with
  | TIdent s when s = kw -> advance st; true
  | _ -> false

let expect_kw st kw =
  if not (try_kw st kw) then err st (Printf.sprintf "expected '%s'" kw)

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

(* A sentinel for `$a[] = ...`; only [expr_to_lval] consumes it. *)
let append_sentinel = Str "\000append\000"

let rec expr_to_lval st (e : expr) : lval =
  match e with
  | Var v -> LVar v
  | Index (b, i) when i == append_sentinel -> LIndex (expr_to_lval st b, None)
  | Index (b, i) -> LIndex (expr_to_lval st b, Some i)
  | Prop (b, p) -> LProp (b, p)
  | _ -> err st "invalid assignment target"

let hint_of_name st = function
  | "int" -> Hint_int
  | "float" | "double" -> Hint_float
  | "string" -> Hint_string
  | "bool" | "boolean" -> Hint_bool
  | "array" -> Hint_array
  | "void" | "mixed" -> err st "unsupported hint"
  | c -> Hint_class c

let rec parse_expr st : expr = parse_assign st

and parse_assign st : expr =
  let lhs = parse_ternary st in
  match cur st with
  | TPunct "=" ->
    advance st;
    let rhs = parse_assign st in
    Assign (expr_to_lval st lhs, rhs)
  | TPunct ("+=" | "-=" | "*=" | "/=" | "%=" | ".=" as op) ->
    advance st;
    let rhs = parse_assign st in
    let bop = match op with
      | "+=" -> Add | "-=" -> Sub | "*=" -> Mul | "/=" -> Div
      | "%=" -> Mod | ".=" -> Concat | _ -> assert false
    in
    AssignOp (bop, expr_to_lval st lhs, rhs)
  | _ -> lhs

and parse_ternary st : expr =
  let c = parse_or st in
  if try_punct st "?:" then
    let e2 = parse_ternary st in
    Ternary (c, c, e2)
  else if try_punct st "?" then begin
    let e1 = parse_expr st in
    eat_punct st ":";
    let e2 = parse_ternary st in
    Ternary (c, e1, e2)
  end else c

and parse_or st : expr =
  let l = parse_and st in
  if try_punct st "||" then Or (l, parse_or st) else l

and parse_and st : expr =
  let l = parse_bitor st in
  if try_punct st "&&" then And (l, parse_and st) else l

and parse_bitor st : expr =
  let l = ref (parse_bitxor st) in
  while peek_punct st "|" do advance st; l := Binop (BitOr, !l, parse_bitxor st) done;
  !l

and parse_bitxor st : expr =
  let l = ref (parse_bitand st) in
  while peek_punct st "^" do advance st; l := Binop (BitXor, !l, parse_bitand st) done;
  !l

and parse_bitand st : expr =
  let l = ref (parse_equality st) in
  while peek_punct st "&" do advance st; l := Binop (BitAnd, !l, parse_equality st) done;
  !l

and parse_equality st : expr =
  let l = ref (parse_relational st) in
  let continue_ = ref true in
  while !continue_ do
    match cur st with
    | TPunct "==" -> advance st; l := Binop (Eq, !l, parse_relational st)
    | TPunct "!=" -> advance st; l := Binop (Neq, !l, parse_relational st)
    | TPunct "===" -> advance st; l := Binop (Same, !l, parse_relational st)
    | TPunct "!==" -> advance st; l := Binop (NSame, !l, parse_relational st)
    | _ -> continue_ := false
  done;
  !l

and parse_relational st : expr =
  let l = ref (parse_shift st) in
  let continue_ = ref true in
  while !continue_ do
    match cur st with
    | TPunct "<" -> advance st; l := Binop (Lt, !l, parse_shift st)
    | TPunct "<=" -> advance st; l := Binop (Lte, !l, parse_shift st)
    | TPunct ">" -> advance st; l := Binop (Gt, !l, parse_shift st)
    | TPunct ">=" -> advance st; l := Binop (Gte, !l, parse_shift st)
    | TIdent "instanceof" ->
      advance st;
      let cls = eat_ident st in
      l := InstanceOf (!l, cls);
    | _ -> continue_ := false
  done;
  !l

and parse_shift st : expr =
  let l = ref (parse_additive st) in
  let continue_ = ref true in
  while !continue_ do
    match cur st with
    | TPunct "<<" -> advance st; l := Binop (Shl, !l, parse_additive st)
    | TPunct ">>" -> advance st; l := Binop (Shr, !l, parse_additive st)
    | _ -> continue_ := false
  done;
  !l

and parse_additive st : expr =
  let l = ref (parse_multiplicative st) in
  let continue_ = ref true in
  while !continue_ do
    match cur st with
    | TPunct "+" -> advance st; l := Binop (Add, !l, parse_multiplicative st)
    | TPunct "-" -> advance st; l := Binop (Sub, !l, parse_multiplicative st)
    | TPunct "." -> advance st; l := Binop (Concat, !l, parse_multiplicative st)
    | _ -> continue_ := false
  done;
  !l

and parse_multiplicative st : expr =
  let l = ref (parse_unary st) in
  let continue_ = ref true in
  while !continue_ do
    match cur st with
    | TPunct "*" -> advance st; l := Binop (Mul, !l, parse_unary st)
    | TPunct "/" -> advance st; l := Binop (Div, !l, parse_unary st)
    | TPunct "%" -> advance st; l := Binop (Mod, !l, parse_unary st)
    | _ -> continue_ := false
  done;
  !l

and parse_unary st : expr =
  match cur st with
  | TPunct "-" -> advance st; Unop (Neg, parse_unary st)
  | TPunct "!" -> advance st; Unop (Not, parse_unary st)
  | TPunct "~" -> advance st; Unop (BitNot, parse_unary st)
  | TPunct "++" ->
    advance st;
    let e = parse_unary st in
    IncDec (PreInc, expr_to_lval st e)
  | TPunct "--" ->
    advance st;
    let e = parse_unary st in
    IncDec (PreDec, expr_to_lval st e)
  | TPunct "(" ->
    (* cast or parenthesized expression *)
    (match st.lx.toks.(st.i + 1), st.lx.toks.(st.i + 2) with
     | TIdent ("int" | "integer"), TPunct ")" ->
       st.i <- st.i + 3; Unop (CastInt, parse_unary st)
     | TIdent ("float" | "double"), TPunct ")" ->
       st.i <- st.i + 3; Unop (CastDbl, parse_unary st)
     | TIdent "string", TPunct ")" ->
       st.i <- st.i + 3; Unop (CastString, parse_unary st)
     | TIdent ("bool" | "boolean"), TPunct ")" ->
       st.i <- st.i + 3; Unop (CastBool, parse_unary st)
     | _ ->
       advance st;
       let e = parse_expr st in
       eat_punct st ")";
       parse_postfix st e)
  | _ -> parse_postfix st (parse_primary st)

and parse_postfix st (e : expr) : expr =
  match cur st with
  | TPunct "[" ->
    advance st;
    if try_punct st "]" then parse_postfix st (Index (e, append_sentinel))
    else begin
      let idx = parse_expr st in
      eat_punct st "]";
      parse_postfix st (Index (e, idx))
    end
  | TPunct "->" ->
    advance st;
    let name = eat_ident st in
    if peek_punct st "(" then begin
      let args = parse_args st in
      parse_postfix st (MethodCall (e, name, args))
    end else
      parse_postfix st (Prop (e, name))
  | TPunct "++" -> advance st; IncDec (PostInc, expr_to_lval st e)
  | TPunct "--" -> advance st; IncDec (PostDec, expr_to_lval st e)
  | _ -> e

and parse_args st : expr list =
  eat_punct st "(";
  if try_punct st ")" then []
  else begin
    let args = ref [ parse_expr st ] in
    while try_punct st "," do args := parse_expr st :: !args done;
    eat_punct st ")";
    List.rev !args
  end

and parse_primary st : expr =
  match cur st with
  | TInt i -> advance st; Int i
  | TDbl d -> advance st; Dbl d
  | TStr s -> advance st; Str s
  | TTemplate ps ->
    advance st;
    (* "a $x b" desugars to "a" . $x . " b" (left-associated concat) *)
    let part_expr = function
      | Lexer.PLit s -> Str s
      | Lexer.PVar v -> Var v
    in
    (match ps with
     | [] -> Str ""
     | p :: rest ->
       List.fold_left
         (fun acc p -> Binop (Concat, acc, part_expr p))
         (part_expr p) rest)
  | TVar "this" -> advance st; This
  | TVar v -> advance st; Var v
  | TIdent "true" | TIdent "TRUE" | TIdent "True" -> advance st; Bool true
  | TIdent "false" | TIdent "FALSE" | TIdent "False" -> advance st; Bool false
  | TIdent "null" | TIdent "NULL" | TIdent "Null" -> advance st; Null
  | TIdent "new" ->
    advance st;
    let cls = eat_ident st in
    let args = if peek_punct st "(" then parse_args st else [] in
    New (cls, args)
  | TIdent "isset" ->
    advance st;
    eat_punct st "(";
    let e = parse_expr st in
    eat_punct st ")";
    Isset (expr_to_lval st e)
  | TIdent "array" when (match st.lx.toks.(st.i + 1) with TPunct "(" -> true | _ -> false) ->
    advance st; advance st;
    parse_array_items st ")"
  | TIdent name ->
    advance st;
    if peek_punct st "(" then Call (name, parse_args st)
    else err st (Printf.sprintf "unexpected bare identifier '%s'" name)
  | TPunct "[" ->
    advance st;
    parse_array_items st "]"
  | _ -> err st "expected expression"

and parse_array_items st closer : expr =
  let items = ref [] in
  if not (try_punct st closer) then begin
    let parse_item () =
      let e1 = parse_expr st in
      if try_punct st "=>" then
        let v = parse_expr st in
        items := (Some e1, v) :: !items
      else items := (None, e1) :: !items
    in
    parse_item ();
    let continue_ = ref true in
    while !continue_ do
      if try_punct st "," then begin
        if peek_punct st closer then continue_ := false else parse_item ()
      end else continue_ := false
    done;
    eat_punct st closer
  end;
  ArrayLit (List.rev !items)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let rec parse_block st : block =
  if try_punct st "{" then begin
    let stmts = ref [] in
    while not (try_punct st "}") do
      stmts := parse_stmt st :: !stmts
    done;
    List.rev !stmts
  end else [ parse_stmt st ]

and parse_stmt st : stmt =
  match cur st with
  | TIdent "if" -> advance st; parse_if st
  | TIdent "while" ->
    advance st;
    eat_punct st "(";
    let c = parse_expr st in
    eat_punct st ")";
    SWhile (c, parse_block st)
  | TIdent "do" ->
    advance st;
    let body = parse_block st in
    expect_kw st "while";
    eat_punct st "(";
    let c = parse_expr st in
    eat_punct st ")";
    eat_punct st ";";
    SDo (body, c)
  | TIdent "for" ->
    advance st;
    eat_punct st "(";
    let inits =
      if peek_punct st ";" then []
      else begin
        let l = ref [ parse_expr st ] in
        while try_punct st "," do l := parse_expr st :: !l done;
        List.rev !l
      end
    in
    eat_punct st ";";
    let cond = if peek_punct st ";" then None else Some (parse_expr st) in
    eat_punct st ";";
    let updates =
      if peek_punct st ")" then []
      else begin
        let l = ref [ parse_expr st ] in
        while try_punct st "," do l := parse_expr st :: !l done;
        List.rev !l
      end
    in
    eat_punct st ")";
    SFor (inits, cond, updates, parse_block st)
  | TIdent "foreach" ->
    advance st;
    eat_punct st "(";
    let coll = parse_expr st in
    expect_kw st "as";
    let first =
      match cur st with
      | TVar v -> advance st; v
      | _ -> err st "expected variable in foreach"
    in
    let key, value =
      if try_punct st "=>" then
        match cur st with
        | TVar v -> advance st; (Some first, v)
        | _ -> err st "expected value variable in foreach"
      else (None, first)
    in
    eat_punct st ")";
    SForeach (coll, key, value, parse_block st)
  | TIdent "return" ->
    advance st;
    if try_punct st ";" then SReturn None
    else begin
      let e = parse_expr st in
      eat_punct st ";";
      SReturn (Some e)
    end
  | TIdent "break" -> advance st; eat_punct st ";"; SBreak
  | TIdent "continue" -> advance st; eat_punct st ";"; SContinue
  | TIdent "throw" ->
    advance st;
    let e = parse_expr st in
    eat_punct st ";";
    SThrow e
  | TIdent "try" ->
    advance st;
    let body = parse_block st in
    let catches = ref [] in
    while (match cur st with TIdent "catch" -> true | _ -> false) do
      advance st;
      eat_punct st "(";
      let cls = eat_ident st in
      let v = match cur st with
        | TVar v -> advance st; v
        | _ -> err st "expected catch variable"
      in
      eat_punct st ")";
      catches := (cls, v, parse_block st) :: !catches
    done;
    if !catches = [] then err st "try without catch";
    STry (body, List.rev !catches)
  | TIdent "switch" ->
    advance st;
    eat_punct st "(";
    let scrut = parse_expr st in
    eat_punct st ")";
    eat_punct st "{";
    let cases = ref [] and default = ref None in
    while not (try_punct st "}") do
      if try_kw st "case" then begin
        let v = parse_expr st in
        eat_punct st ":";
        let body = ref [] in
        while not (peek_punct st "}")
              && not (match cur st with TIdent ("case" | "default") -> true | _ -> false) do
          body := parse_stmt st :: !body
        done;
        cases := (v, List.rev !body) :: !cases
      end else begin
        expect_kw st "default";
        eat_punct st ":";
        let body = ref [] in
        while not (peek_punct st "}")
              && not (match cur st with TIdent ("case" | "default") -> true | _ -> false) do
          body := parse_stmt st :: !body
        done;
        default := Some (List.rev !body)
      end
    done;
    SSwitch (scrut, List.rev !cases, !default)
  | TIdent "echo" ->
    advance st;
    let es = ref [ parse_expr st ] in
    while try_punct st "," do es := parse_expr st :: !es done;
    eat_punct st ";";
    SEcho (List.rev !es)
  | TIdent "unset" ->
    advance st;
    eat_punct st "(";
    let e = parse_expr st in
    eat_punct st ")";
    eat_punct st ";";
    SUnset (expr_to_lval st e)
  | TPunct "{" ->
    (* nested bare block: flatten via If(true) to keep blocks uniform *)
    let b = parse_block st in
    SIf (Bool true, b, [])
  | TPunct ";" -> advance st; SExpr Null
  | _ ->
    let e = parse_expr st in
    eat_punct st ";";
    SExpr e

and parse_if st : stmt =
  eat_punct st "(";
  let c = parse_expr st in
  eat_punct st ")";
  let then_ = parse_block st in
  let else_ =
    if try_kw st "elseif" then [ parse_if st ]
    else if try_kw st "else" then begin
      if (match cur st with TIdent "if" -> true | _ -> false) then begin
        advance st; [ parse_if st ]
      end else parse_block st
    end else []
  in
  SIf (c, then_, else_)

(* ------------------------------------------------------------------ *)
(* Declarations                                                        *)
(* ------------------------------------------------------------------ *)

let parse_hint st : hint option =
  match cur st with
  | TPunct "?" ->
    (match st.lx.toks.(st.i + 1) with
     | TIdent name ->
       advance st; advance st;
       Some (Hint_nullable (hint_of_name st name))
     | _ -> None)
  | TIdent name when (match st.lx.toks.(st.i + 1) with TVar _ -> true | _ -> false) ->
    advance st;
    Some (hint_of_name st name)
  | _ -> None

let parse_params st : param list =
  eat_punct st "(";
  if try_punct st ")" then []
  else begin
    let parse_param () =
      let hint = parse_hint st in
      let name = match cur st with
        | TVar v -> advance st; v
        | _ -> err st "expected parameter"
      in
      let default = if try_punct st "=" then Some (parse_expr st) else None in
      { p_name = name; p_hint = hint; p_default = default }
    in
    let ps = ref [ parse_param () ] in
    while try_punct st "," do ps := parse_param () :: !ps done;
    eat_punct st ")";
    List.rev !ps
  end

let parse_fun st : fun_decl =
  let name = eat_ident st in
  let params = parse_params st in
  (* optional return-type hint: `: int` — parsed and discarded (Hack-style) *)
  if try_punct st ":" then begin
    ignore (try_punct st "?");
    ignore (eat_ident st)
  end;
  let body = parse_block st in
  { f_name = name; f_params = params; f_body = body }

let rec skip_modifiers st =
  match cur st with
  | TIdent ("public" | "private" | "protected" | "final") ->
    advance st; skip_modifiers st
  | _ -> ()

let parse_class st : class_decl =
  let name = eat_ident st in
  let parent = if try_kw st "extends" then Some (eat_ident st) else None in
  let implements =
    if try_kw st "implements" then begin
      let is = ref [ eat_ident st ] in
      while try_punct st "," do is := eat_ident st :: !is done;
      List.rev !is
    end else []
  in
  eat_punct st "{";
  let props = ref [] and methods = ref [] in
  while not (try_punct st "}") do
    skip_modifiers st;
    if try_kw st "function" then
      methods := parse_fun st :: !methods
    else begin
      match cur st with
      | TVar v ->
        advance st;
        let default = if try_punct st "=" then parse_expr st else Null in
        eat_punct st ";";
        props := { pr_name = v; pr_default = default } :: !props
      | _ -> err st "expected property or method in class body"
    end
  done;
  { c_name = name; c_parent = parent; c_implements = implements;
    c_props = List.rev !props; c_methods = List.rev !methods }

let parse_interface st : decl =
  let name = eat_ident st in
  let parents =
    if try_kw st "extends" then begin
      let is = ref [ eat_ident st ] in
      while try_punct st "," do is := eat_ident st :: !is done;
      List.rev !is
    end else []
  in
  eat_punct st "{";
  (* interface bodies: method signatures, parsed and discarded *)
  while not (try_punct st "}") do
    skip_modifiers st;
    expect_kw st "function";
    let _name = eat_ident st in
    let _params = parse_params st in
    if try_punct st ":" then begin
      ignore (try_punct st "?");
      ignore (eat_ident st)
    end;
    eat_punct st ";"
  done;
  DInterface (name, parents)

let strip_php_tag (src : string) : string =
  let try_strip prefix =
    if String.length src >= String.length prefix
       && String.sub src 0 (String.length prefix) = prefix
    then Some (String.sub src (String.length prefix)
                 (String.length src - String.length prefix))
    else None
  in
  match try_strip "<?php" with
  | Some rest -> rest
  | None -> (match try_strip "<?hh" with Some rest -> rest | None -> src)

let parse_program ?(src_name = "<input>") (src : string) : program =
  let src = strip_php_tag src in
  let lx = Lexer.lex ~src_name src in
  let st = { lx; i = 0 } in
  let decls = ref [] in
  while cur st <> TEof do
    if try_kw st "function" then decls := DFun (parse_fun st) :: !decls
    else if try_kw st "class" then decls := DClass (parse_class st) :: !decls
    else if try_kw st "interface" then decls := parse_interface st :: !decls
    else err st "expected top-level declaration"
  done;
  List.rev !decls
