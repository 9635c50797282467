(** hhbbc — the HipHop Bytecode-to-Bytecode Compiler (paper §2.3).

    Performs flow-sensitive abstract interpretation of each function over the
    {!Hhbc.Rtype} lattice and records, for every program point, the inferred
    types of locals and stack slots.  A second pass ({!Assert_insert}) turns
    these facts into [AssertRATL]/[AssertRATStk] instructions, which are the
    channel through which ahead-of-time knowledge reaches the JIT (Fig. 3).

    Parameter type hints are trusted because the runtime enforces shallow
    hints at every prologue (§2.1): after the check, the hint is a fact. *)

open Hhbc.Instr
module R = Hhbc.Rtype

type state = {
  locals : R.t array;
  stack : R.t list;
}

let state_equal (a : state) (b : state) =
  (try List.for_all2 R.equal a.stack b.stack with Invalid_argument _ -> false)
  && Array.for_all2 R.equal a.locals b.locals

let join_state (a : state) (b : state) : state =
  if List.length a.stack <> List.length b.stack then
    (* different stack depths can only meet at unreachable joins; be safe *)
    { locals = Array.map2 R.join a.locals b.locals;
      stack = (if List.length a.stack > List.length b.stack then a.stack else b.stack) }
  else
    { locals = Array.map2 R.join a.locals b.locals;
      stack = List.map2 R.join a.stack b.stack }

let entry_state (f : func) : state =
  let locals = Array.make (max f.fn_num_locals 1) R.uninit in
  Array.iteri
    (fun i (p : param_info) ->
       let base =
         match p.pi_hint with
         | Some h -> R.of_hint h
         | None -> R.init_cell
       in
       (* a defaulted parameter may also carry its default's type *)
       locals.(i) <- base)
    f.fn_params;
  { locals; stack = [] }

(* --- abstract transfer --- *)

let push t (s : state) = { s with stack = t :: s.stack }

let pop (s : state) : R.t * state =
  match s.stack with
  | t :: rest -> (t, { s with stack = rest })
  | [] -> (R.cell, s)   (* under-flow only on unreachable paths *)

let pop2 s = let b, s = pop s in let a, s = pop s in (a, b, s)

let set_local (s : state) (l : int) (t : R.t) : state =
  let locals = Array.copy s.locals in
  locals.(l) <- t;
  { s with locals }

(** [transfer u f i s] returns the fall-through successor state, or [None]
    when the instruction never falls through. *)
let transfer (u : Hhbc.Hunit.t) (f : func) (i : Hhbc.Instr.t) (s : state)
  : state option =
  ignore u;
  match i with
  | Int _ -> Some (push R.int s)
  | Dbl _ -> Some (push R.dbl s)
  | String _ -> Some (push R.sstr s)
  | True | False -> Some (push R.bool s)
  | Null -> Some (push R.init_null s)
  | NewArray -> Some (push R.packed_arr s)
  | AddNewElemC ->
    let _v, s = pop s in
    let a, s = pop s in
    (* appending preserves packedness *)
    Some (push (R.meet a R.arr) s)
  | AddElemC ->
    let _v, _k, s = pop2 s in
    let _a, s = pop s in
    Some (push (R.make R.b_arr) s)
  | CGetL l | CGetQuietL l ->
    Some (push (R.meet s.locals.(l) R.init_cell) s)
  | CGetL2 l ->
    let t, s = pop s in
    Some (push t (push (R.meet s.locals.(l) R.init_cell) s))
  | PushL l ->
    Some (push (R.meet s.locals.(l) R.init_cell) (set_local s l R.uninit))
  | SetL l ->
    let t, s' = pop s in
    Some (push t (set_local s' l t))
  | PopL l ->
    let t, s = pop s in
    Some (set_local s l t)
  | PopC -> let _, s = pop s in Some s
  | Dup -> let t, s = pop s in Some (push t (push t s))
  | IncDecL (l, op) ->
    let nt, result = Hhbc.Optype.incdec op s.locals.(l) in
    Some (push result (set_local s l nt))
  | IssetL _ -> Some (push R.bool s)
  | UnsetL l -> Some (set_local s l R.uninit)
  | Binop op ->
    let a, b, s = pop2 s in
    Some (push (Hhbc.Optype.binop op a b) s)
  | Unop op -> let t, s = pop s in Some (push (Hhbc.Optype.unop op t) s)
  | InstanceOf _ -> let _, s = pop s in Some (push R.bool s)
  | IsTypeL _ -> Some (push R.bool s)
  | Jmp _ -> None
  | JmpZ _ | JmpNZ _ -> let _, s = pop s in Some s
  | RetC | Throw | Fatal _ -> None
  | FCall (_, n) ->
    let s = List.fold_left (fun s _ -> snd (pop s)) s (List.init n Fun.id) in
    Some (push R.init_cell s)
  | FCallD (name, n) | FCallBuiltin (name, n) ->
    let s = List.fold_left (fun s _ -> snd (pop s)) s (List.init n Fun.id) in
    let ret =
      match i with
      | FCallBuiltin _ -> Vm.Builtins.return_type name
      | _ ->
        (match Hhbc.Hunit.find_func u name with
         | Some _ -> R.init_cell
         | None -> Vm.Builtins.return_type name)
    in
    Some (push ret s)
  | FCallM (_, n) ->
    let s = List.fold_left (fun s _ -> snd (pop s)) s (List.init n Fun.id) in
    let _recv, s = pop s in
    Some (push R.init_cell s)
  | NewObjD (c, n) ->
    let s = List.fold_left (fun s _ -> snd (pop s)) s (List.init n Fun.id) in
    Some (push (R.obj_exact c) s)
  | This ->
    let t = match f.fn_cls with
      | Some c -> R.obj_sub c
      | None -> R.obj
    in
    Some (push t s)
  | QueryM_Elem ->
    let _k, s = pop s in
    let _b, s = pop s in
    Some (push R.init_cell s)
  | QueryM_Prop _ ->
    let _b, s = pop s in
    Some (push R.init_cell s)
  | SetM_ElemL l ->
    let v, _k, s = pop2 s |> fun (k, v, s) -> (v, k, s) in
    (* note: stack order is [k v]; v on top *)
    Some (push v (set_local s l (R.make R.b_arr)))
  | SetM_NewElemL l ->
    let v, s = pop s in
    let prev = s.locals.(l) in
    let keeps_packed =
      R.subtype prev R.packed_arr || R.subtype prev R.uninit
    in
    Some (push v (set_local s l (if keeps_packed then R.packed_arr else R.make R.b_arr)))
  | UnsetM_ElemL l ->
    let _k, s = pop s in
    Some (set_local s l (R.make R.b_arr))
  | SetM_Prop _ ->
    let v, _b, s = pop2 s |> fun (b, v, s) -> (v, b, s) in
    Some (push v s)
  | IncDecM_Prop (_, op) ->
    let _b, s = pop s in
    Some (push (Hhbc.Optype.incdec_prop op) s)
  | IssetM_Elem ->
    let _k, _b, s = pop2 s in
    Some (push R.bool s)
  | IssetM_Prop _ ->
    let _b, s = pop s in
    Some (push R.bool s)
  | Print -> let _, s = pop s in Some s
  | IterInit _ ->
    let _a, s = pop s in
    Some s
  | IterKV (_, kloc, vloc) ->
    let s = match kloc with
      | Some kl -> set_local s kl (R.join R.int R.sstr)
      | None -> s
    in
    Some (set_local s vloc R.init_cell)
  | IterNext _ -> Some s
  | IterFree _ -> Some s
  | AssertRATL (l, t) -> Some (set_local s l (R.meet s.locals.(l) t))
  | AssertRATStk (off, t) ->
    let stack =
      List.mapi (fun j ty -> if j = off then R.meet ty t else ty) s.stack
    in
    Some { s with stack }
  | Nop -> Some s

(** Branch-taken successor state (condition consumed, etc.). *)
let taken_state (i : Hhbc.Instr.t) (s : state) : state =
  match i with
  | Jmp _ -> s
  | JmpZ _ | JmpNZ _ -> snd (pop s)
  | IterInit _ -> snd (pop s)   (* done-target: array already popped *)
  | IterNext _ -> s
  | _ -> s

(** Analyze one function; returns the per-pc input state (None = dead). *)
let analyze (u : Hhbc.Hunit.t) (f : func) : state option array =
  let n = Array.length f.fn_body in
  let in_states : state option array = Array.make n None in
  let work = Queue.create () in
  let schedule pc st =
    if pc < n then
      match in_states.(pc) with
      | None ->
        in_states.(pc) <- Some st;
        Queue.push pc work
      | Some old ->
        let j = join_state old st in
        if not (state_equal j old) then begin
          in_states.(pc) <- Some j;
          Queue.push pc work
        end
  in
  schedule 0 (entry_state f);
  (* exception handlers: conservative entry states *)
  List.iter
    (fun (e : ex_entry) ->
       let locals = Array.make (max f.fn_num_locals 1) R.cell in
       locals.(e.ex_local) <- R.obj_sub e.ex_class;
       schedule e.ex_handler { locals; stack = [] })
    f.fn_ex_table;
  while not (Queue.is_empty work) do
    let pc = Queue.pop work in
    match in_states.(pc) with
    | None -> ()
    | Some st ->
      let i = f.fn_body.(pc) in
      (match transfer u f i st with
       | Some st' -> schedule (pc + 1) st'
       | None -> ());
      List.iter (fun t -> schedule t (taken_state i st)) (branch_targets i)
  done;
  in_states
