(** HHBC disassembler — renders bytecode in the style of the paper's
    Figure 3 / Figure 6b listings. *)

open Instr

let incdec_name = function
  | PostInc -> "PostInc" | PostDec -> "PostDec"
  | PreInc -> "PreInc" | PreDec -> "PreDec"

let local_name (f : func) (l : int) =
  if l < Array.length f.fn_local_names then f.fn_local_names.(l)
  else Printf.sprintf "?%d" l

let instr_to_string ?(func : func option) (i : t) : string =
  let loc l =
    match func with
    | Some f -> Printf.sprintf "L:%d ($%s)" l (local_name f l)
    | None -> Printf.sprintf "L:%d" l
  in
  match i with
  | Int n -> Printf.sprintf "Int %d" n
  | Dbl d -> Printf.sprintf "Dbl %g" d
  | String s -> Printf.sprintf "String %S" s
  | True -> "True"
  | False -> "False"
  | Null -> "Null"
  | NewArray -> "NewArray"
  | AddNewElemC -> "AddNewElemC"
  | AddElemC -> "AddElemC"
  | CGetL l -> "CGetL " ^ loc l
  | PushL l -> "PushL " ^ loc l
  | SetL l -> "SetL " ^ loc l
  | PopC -> "PopC"
  | Dup -> "Dup"
  | IncDecL (l, op) -> Printf.sprintf "IncDecL %s %s" (loc l) (incdec_name op)
  | IssetL l -> "IssetL " ^ loc l
  | UnsetL l -> "UnsetL " ^ loc l
  | Binop op -> binop_name op
  | Unop _ -> opcode_names.(opcode_id i)
  | InstanceOf c -> "InstanceOfD " ^ c
  | Jmp t -> Printf.sprintf "Jmp -> %d" t
  | JmpZ t -> Printf.sprintf "JmpZ -> %d" t
  | JmpNZ t -> Printf.sprintf "JmpNZ -> %d" t
  | RetC -> "RetC"
  | Throw -> "Throw"
  | FCall (id, n) -> Printf.sprintf "FCall f%d %d" id n
  | FCallBuiltin (name, n) -> Printf.sprintf "FCallBuiltin %d \"%s\"" n name
  | FCallM (name, n) -> Printf.sprintf "FCallObjMethodD %d \"%s\"" n name
  | NewObjD (c, n) -> Printf.sprintf "NewObjD \"%s\" %d" c n
  | This -> "This"
  | QueryM_Elem -> "QueryM EC"
  | QueryM_Prop p -> Printf.sprintf "QueryM PT:\"%s\"" p
  | SetM_ElemL l -> Printf.sprintf "SetM EL:%s" (loc l)
  | SetM_NewElemL l -> Printf.sprintf "SetM W L:%s" (loc l)
  | UnsetM_ElemL l -> Printf.sprintf "UnsetM EL:%s" (loc l)
  | SetM_Prop p -> Printf.sprintf "SetM PT:\"%s\"" p
  | IncDecM_Prop (p, op) -> Printf.sprintf "IncDecM PT:\"%s\" %s" p (incdec_name op)
  | IssetM_Elem -> "IssetM EC"
  | IssetM_Prop p -> Printf.sprintf "IssetM PT:\"%s\"" p
  | Print -> "Print"
  | IterInit (it, t) -> Printf.sprintf "IterInit %d -> %d" it t
  | IterKV (it, k, v) ->
    Printf.sprintf "IterKV %d %s V:%s" it
      (match k with Some k -> "K:" ^ loc k | None -> "_") (loc v)
  | IterNext (it, t) -> Printf.sprintf "IterNext %d -> %d" it t
  | IterFree it -> Printf.sprintf "IterFree %d" it
  | AssertRATL (l, ty) ->
    Printf.sprintf "AssertRATL %s %s" (loc l) (Rtype.to_string ty)
  | AssertRATStk (off, ty) ->
    Printf.sprintf "AssertRATStk %d %s" off (Rtype.to_string ty)
  | Nop -> "Nop"

let func_to_string (f : func) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "function %s(%s)  # locals=%d iters=%d\n"
       f.fn_name
       (String.concat ", "
          (Array.to_list
             (Array.map
                (fun p ->
                   let h = match p.pi_hint with
                     | Some h -> Mphp.Ast.hint_name h ^ " "
                     | None -> ""
                   in
                   h ^ "$" ^ p.pi_name)
                f.fn_params)))
       f.fn_num_locals f.fn_num_iters);
  Array.iteri
    (fun pc i ->
       Buffer.add_string buf
         (Printf.sprintf "  %4d: %s\n" pc (instr_to_string ~func:f i)))
    f.fn_body;
  List.iter
    (fun e ->
       Buffer.add_string buf
         (Printf.sprintf "  .try [%d, %d) -> %d catch (%s -> L:%d)\n"
            e.ex_start e.ex_end e.ex_handler e.ex_class e.ex_local))
    f.fn_ex_table;
  Buffer.contents buf

let unit_to_string (u : Hunit.t) : string =
  let buf = Buffer.create 1024 in
  Array.iter (fun f -> Buffer.add_string buf (func_to_string f); Buffer.add_char buf '\n')
    u.Hunit.functions;
  Buffer.contents buf
