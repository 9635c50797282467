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

(** [transfer f] steps {!Hhbc.Step} over states of [f]: [transfer f i s]
    is the state after [i], on the fall-through edge and on a branch's
    taken edge alike.  Locals are copied on the first write, so [s] is
    left as it was. *)
let transfer (f : func) : Hhbc.Instr.t -> state -> state =
  let locals = ref [||] and copied = ref false in
  let m =
    Hhbc.Step.typed
      ~underflow:(fun () -> R.cell)    (* only on unreachable paths *)
      ~local:(fun l -> !locals.(l))
      ~set_local:(fun l t ->
          if not !copied then begin
            locals := Array.copy !locals;
            copied := true
          end;
          !locals.(l) <- t)
  in
  fun i s ->
    m.stack <- s.stack;
    locals := s.locals;
    copied := false;
    Hhbc.Step.step m ~cls:f.fn_cls i;
    { locals = !locals; stack = m.stack }

(** Analyze one function; returns the per-pc input state (None = dead). *)
let analyze (f : func) : state option array =
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
  let transfer = transfer f in
  while not (Queue.is_empty work) do
    let pc = Queue.pop work in
    match in_states.(pc) with
    | None -> ()
    | Some st ->
      let i = f.fn_body.(pc) in
      let st' = transfer i st in
      if not (is_terminal i) then schedule (pc + 1) st';
      List.iter (fun t -> schedule t st') (branch_targets i)
  done;
  in_states
