(** Bytecode-to-bytecode optimizations (the other half of hhbbc's job,
    paper §2.3: "a new round of analyses and optimizations is performed").

    These run after {!Assert_insert} and keep instruction positions stable
    (dead code becomes [Nop]) so no jump-target or exception-table remapping
    is needed:

    - jump threading: a branch to an unconditional [Jmp] retargets to its
      final destination;
    - unreachable-code elimination: instructions the flow analysis proves
      dead become [Nop] (the interpreter and the tracelet selector skip
      them for free);
    - branch-to-next elimination: a [Jmp] to the following instruction
      becomes [Nop]. *)

open Hhbc.Instr

type stats = {
  mutable threaded : int;
  mutable dead : int;
  mutable jmp_to_next : int;
}

let stats = { threaded = 0; dead = 0; jmp_to_next = 0 }

(** Follow a chain of unconditional jumps (and Nops) to its final target. *)
let rec final_target (code : t array) (t : int) (fuel : int) : int =
  if fuel = 0 || t < 0 || t >= Array.length code then t
  else
    match code.(t) with
    | Jmp t' when t' <> t -> final_target code t' (fuel - 1)
    | Nop -> final_target code (t + 1) (fuel - 1)
    | _ -> t

let thread_jumps (f : func) : int =
  let code = f.fn_body in
  let changed = ref 0 in
  Array.iteri
    (fun pc i ->
       let retarget mk t =
         let t' = final_target code t 8 in
         if t' <> t then begin
           code.(pc) <- mk t';
           incr changed
         end
       in
       match i with
       | Jmp t -> retarget (fun t -> Jmp t) t
       | JmpZ t -> retarget (fun t -> JmpZ t) t
       | JmpNZ t -> retarget (fun t -> JmpNZ t) t
       | IterInit (id, t) -> retarget (fun t -> IterInit (id, t)) t
       | IterNext (id, t) -> retarget (fun t -> IterNext (id, t)) t
       | _ -> ())
    code;
  stats.threaded <- stats.threaded + !changed;
  !changed

let kill_jmp_to_next (f : func) : int =
  let code = f.fn_body in
  let changed = ref 0 in
  Array.iteri
    (fun pc i ->
       match i with
       | Jmp t when t = pc + 1 ->
         code.(pc) <- Nop;
         incr changed
       | _ -> ())
    code;
  stats.jmp_to_next <- stats.jmp_to_next + !changed;
  !changed

(** Nop out instructions the abstract interpreter proves unreachable.
    Exception handlers count as roots (the analysis already seeds them). *)
let kill_unreachable (f : func) : int =
  let states = Infer.analyze f in
  let code = f.fn_body in
  let changed = ref 0 in
  Array.iteri
    (fun pc i ->
       if Option.is_none states.(pc) && i <> Nop then begin
         code.(pc) <- Nop;
         incr changed
       end)
    code;
  stats.dead <- stats.dead + !changed;
  !changed

(** Run all bytecode optimizations over a unit; returns total rewrites. *)
let run (u : Hhbc.Hunit.t) : int =
  Array.fold_left
    (fun acc f ->
       let n = thread_jumps f + kill_jmp_to_next f + kill_unreachable f in
       (* threading can expose more jump-to-next cases; one more round *)
       let n = n + thread_jumps f + kill_jmp_to_next f in
       (* the rewrites above mutate [fn_body] in place: drop any flattened
          form the interpreter may already have cached for this function *)
       if n > 0 then Hhbc.Instr.invalidate_flat f;
       acc + n)
    0 u.Hhbc.Hunit.functions
