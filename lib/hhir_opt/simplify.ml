(** Simplify: constant folding, algebraic simplification, copy propagation
    and branch fusion (paper Fig. 7, HHIR column). *)

open Hhir.Ir
module R = Hhbc.Rtype

module Ops = Runtime.Ops

type konst =
  | KInt of int
  | KDbl of float
  | KBool of bool
  | KNull

(* Folds compute through {!Runtime.Ops}, the interpreter's own operator
   semantics, and decline where it raises (a zero modulus). *)
let value_of : konst -> Runtime.Value.value = function
  | KInt n -> VInt n
  | KDbl d -> VDbl d
  | KBool b -> VBool b
  | KNull -> VNull

let int_op : op -> Ops.iop = function
  | AddInt -> Add | SubInt -> Sub | MulInt -> Mul | ModInt -> Mod
  | AndInt -> And | OrInt -> Or | XorInt -> Xor | ShlInt -> Shl
  | ShrInt -> Shr
  | _ -> invalid_arg "Simplify.int_op"

let run (u : t) : int =
  let changed = ref 0 in
  (* tmp id -> constant, and tmp id -> copied tmp *)
  let consts : (int, konst) Hashtbl.t = Hashtbl.create 32 in
  let copies : (int, tmp) Hashtbl.t = Hashtbl.create 32 in
  let rec resolve (t : tmp) : tmp =
    match Hashtbl.find_opt copies t.t_id with
    | Some t' -> resolve t'
    | None -> t
  in
  let const_of (t : tmp) : konst option =
    Hashtbl.find_opt consts (resolve t).t_id
  in
  let set_const (i : instr) (k : konst) =
    match i.i_dst with
    | Some d ->
      Hashtbl.replace consts d.t_id k;
      changed := !changed + 1;
      i.i_op <- (match k with
          | KInt n -> ConstInt n
          | KDbl d -> ConstDbl d
          | KBool b -> ConstBool b
          | KNull -> ConstNull);
      i.i_args <- []
    | None -> ()
  in
  let set_copy (i : instr) (src : tmp) =
    match i.i_dst with
    | Some d when d != src ->
      (* keep the more precise type on the destination *)
      Hashtbl.replace copies d.t_id src;
      changed := !changed + 1
    | _ -> ()
  in
  List.iter
    (fun (_, b) ->
       List.iter
         (fun i ->
            i.i_args <- List.map resolve i.i_args;
            (match i.i_op, i.i_args with
             | ConstInt n, _ ->
               Option.iter (fun d -> Hashtbl.replace consts d.t_id (KInt n)) i.i_dst
             | ConstDbl d, _ ->
               Option.iter (fun dd -> Hashtbl.replace consts dd.t_id (KDbl d)) i.i_dst
             | ConstBool bv, _ ->
               Option.iter (fun d -> Hashtbl.replace consts d.t_id (KBool bv)) i.i_dst
             | ConstNull, _ ->
               Option.iter (fun d -> Hashtbl.replace consts d.t_id KNull) i.i_dst
             | (AddInt | SubInt | MulInt | ModInt
               | AndInt | OrInt | XorInt | ShlInt | ShrInt as op), [ a; c ] ->
               (match op, const_of a, const_of c with
                | _, Some (KInt x), Some (KInt y) ->
                  Option.iter (fun n -> set_const i (KInt n))
                    (Ops.fold (Ops.int_arith (int_op op)) x y)
                | (AddInt | SubInt), _, Some (KInt 0)
                | MulInt, _, Some (KInt 1) -> set_copy i a
                | AddInt, Some (KInt 0), _
                | MulInt, Some (KInt 1), _ -> set_copy i c
                | _ -> ())
             | NegInt, [ a ] ->
               (match const_of a with
                | Some (KInt x) -> set_const i (KInt (Ops.neg_int x))
                | _ -> ())
             | AddDbl, [ a; c ] ->
               (match const_of a, const_of c with
                | Some (KDbl x), Some (KDbl y) ->
                  set_const i (KDbl (Ops.dbl_arith DAdd x y))
                | _ -> ())
             | CvtIntToDbl, [ a ] ->
               (match const_of a with
                | Some (KInt x) -> set_const i (KDbl (Ops.int_to_dbl x))
                | _ -> ())
             | CmpInt c, [ a; b2 ] ->
               (match const_of a, const_of b2 with
                | Some (KInt x), Some (KInt y) ->
                  set_const i (KBool (Ops.cmp_int c x y))
                | _ -> ())
             | NotBool, [ a ] ->
               (match const_of a with
                | Some k -> set_const i (KBool (not (Ops.to_bool (value_of k))))
                | None -> ())
             | ConvToBool, [ a ] ->
               (match const_of a with
                | Some k -> set_const i (KBool (Ops.to_bool (value_of k)))
                | None ->
                  if R.subtype a.t_ty R.bool then set_copy i a)
             | AssertType, [ a ] ->
               (* pure type refinement: fold into a copy; the dst type is
                  retained by narrowing the source's type *)
               (match i.i_dst with
                | Some d ->
                  let m = R.meet a.t_ty d.t_ty in
                  if not (R.is_bottom m) then a.t_ty <- m;
                  set_copy i a;
                  i.i_op <- Nop;
                  i.i_args <- [];
                  i.i_dst <- None
                | None -> ())
             | CheckType, [ a ] ->
               (* statically satisfied checks disappear *)
               (match i.i_dst with
                | Some d when R.subtype a.t_ty d.t_ty ->
                  set_copy i a;
                  i.i_op <- Nop;
                  i.i_args <- [];
                  i.i_dst <- None;
                  i.i_taken <- None
                | _ -> ())
             | JmpZero, [ a ] ->
               (match const_of a with
                | Some (KBool false) | Some (KInt 0) ->
                  i.i_op <- Jmp; i.i_args <- []; changed := !changed + 1
                | Some (KBool true) | Some (KInt _) ->
                  i.i_op <- Nop; i.i_args <- []; i.i_taken <- None;
                  changed := !changed + 1
                | _ -> ())
             | JmpNZero, [ a ] ->
               (match const_of a with
                | Some (KBool true) ->
                  i.i_op <- Jmp; i.i_args <- []; changed := !changed + 1
                | Some (KBool false) ->
                  i.i_op <- Nop; i.i_args <- []; i.i_taken <- None;
                  changed := !changed + 1
                | Some (KInt n) ->
                  if n <> 0 then begin
                    i.i_op <- Jmp; i.i_args <- []
                  end else begin
                    i.i_op <- Nop; i.i_args <- []; i.i_taken <- None
                  end;
                  changed := !changed + 1
                | _ -> ())
             | _ -> ()))
         b.b_instrs)
    u.blocks;
  (* apply accumulated copies everywhere (including exit metadata) *)
  let rec final (t : tmp) =
    match Hashtbl.find_opt copies t.t_id with
    | Some t' -> final t'
    | None -> t
  in
  Util.substitute u final;
  !changed
