(** Abstract syntax for MiniPHP.

    MiniPHP is the PHP/Hack-like source language of this reproduction: a
    dynamically typed language with value-semantics arrays, reference-counted
    objects with destructors, classes/interfaces, exceptions, and optional
    (shallowly checked) parameter type hints — the feature set the paper's
    optimizations target. *)

type binop =
  | Add | Sub | Mul | Div | Mod
  | Concat
  | Eq | Neq | Same | NSame
  | Lt | Lte | Gt | Gte
  | BitAnd | BitOr | BitXor | Shl | Shr

(** Unary operators and casts: {!Runtime.Ops} defines them. *)
type unop = Runtime.Ops.unop =
  | Not | Neg | BitNot | CastInt | CastDbl | CastString | CastBool

type incdec = PreInc | PreDec | PostInc | PostDec

(** Type hints, as written in parameter lists ([?int], [MyClass], ...).
    Following HHVM's treatment of Hack hints (§2.1), only shallow hints are
    checked at runtime; deep hints like [Array<int>] do not exist here. *)
type hint =
  | Hint_int
  | Hint_float
  | Hint_string
  | Hint_bool
  | Hint_array
  | Hint_class of string
  | Hint_nullable of hint

type expr =
  | Int of int
  | Dbl of float
  | Str of string
  | Bool of bool
  | Null
  | ArrayLit of (expr option * expr) list  (** [k => v] or positional *)
  | Var of string
  | This
  | Binop of binop * expr * expr
  | Unop of unop * expr                   (** -e, !e, ~e, (int)e, ... *)
  | And of expr * expr                     (** short-circuit *)
  | Or of expr * expr
  | Ternary of expr * expr * expr
  | Index of expr * expr                   (** $e[k] *)
  | Prop of expr * string                  (** $e->p *)
  | Call of string * expr list
  | MethodCall of expr * string * expr list
  | New of string * expr list
  | InstanceOf of expr * string
  | Assign of lval * expr
  | AssignOp of binop * lval * expr        (** $x += e, $s .= e, ... *)
  | IncDec of incdec * lval
  | Isset of lval

and lval =
  | LVar of string
  | LIndex of lval * expr option           (** None = append: $a[] = v *)
  | LProp of expr * string

type block = stmt list

and stmt =
  | SExpr of expr
  | SEcho of expr list
  | SIf of expr * block * block
  | SWhile of expr * block
  | SDo of block * expr
  | SFor of expr list * expr option * expr list * block
  | SForeach of expr * string option * string * block  (** e as [$k =>] $v *)
  | SReturn of expr option
  | SBreak
  | SContinue
  | SThrow of expr
  | STry of block * (string * string * block) list     (** catch (Cls $v) *)
  | SSwitch of expr * (expr * block) list * block option
  | SUnset of lval

type param = {
  p_name : string;
  p_hint : hint option;
  p_default : expr option;
}

type fun_decl = {
  f_name : string;
  f_params : param list;
  f_body : block;
}

type prop_decl = {
  pr_name : string;
  pr_default : expr;        (** must be a constant expression *)
}

type class_decl = {
  c_name : string;
  c_parent : string option;
  c_implements : string list;
  c_props : prop_decl list;
  c_methods : fun_decl list;
}

type decl =
  | DFun of fun_decl
  | DClass of class_decl
  | DInterface of string * string list   (** name, extends *)

type program = decl list

let binop_name = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Concat -> "." | Eq -> "==" | Neq -> "!=" | Same -> "===" | NSame -> "!=="
  | Lt -> "<" | Lte -> "<=" | Gt -> ">" | Gte -> ">="
  | BitAnd -> "&" | BitOr -> "|" | BitXor -> "^" | Shl -> "<<" | Shr -> ">>"

(** The bytecode operator, whose semantics {!Runtime.Ops} defines. *)
let vm_binop : binop -> Runtime.Ops.binop = function
  | Add -> OpAdd | Sub -> OpSub | Mul -> OpMul | Div -> OpDiv | Mod -> OpMod
  | Concat -> OpConcat
  | Eq -> OpEq | Neq -> OpNeq | Same -> OpSame | NSame -> OpNSame
  | Lt -> OpLt | Lte -> OpLte | Gt -> OpGt | Gte -> OpGte
  | BitAnd -> OpBitAnd | BitOr -> OpBitOr | BitXor -> OpBitXor
  | Shl -> OpShl | Shr -> OpShr

let rec hint_name = function
  | Hint_int -> "int" | Hint_float -> "float" | Hint_string -> "string"
  | Hint_bool -> "bool" | Hint_array -> "array"
  | Hint_class c -> c
  | Hint_nullable h -> "?" ^ hint_name h
