(** Assertion insertion: rewrites each function's bytecode with
    [AssertRATL]/[AssertRATStk] instructions carrying the facts inferred by
    {!Infer}.  Jump targets and exception tables are remapped.

    Insertion policy (matching the flavour of the paper's Fig. 3):
    - before a [CGetL]/[PushL]/[IncDecL] whose local has a type strictly
      more precise than [InitCell] (and not Bottom), assert it;
    - after a call whose return type is known better than [InitCell],
      assert stack slot 0. *)

open Hhbc.Instr
module R = Hhbc.Rtype

(** Worth asserting: strictly more precise than what the JIT assumes anyway,
    and not so precise that it is degenerate (bottom = dead code). *)
let interesting (t : R.t) : bool =
  (not (R.is_bottom t))
  && (not (R.subtype R.init_cell t))
  && (not (R.equal t R.cell))

let local_assert_before (i : Hhbc.Instr.t) : local list =
  match i with
  | CGetL l | IncDecL (l, _) | PushL l -> [ l ]
  | _ -> []

let stack_assert_after (i : Hhbc.Instr.t) : bool =
  match i with
  | FCallBuiltin _ | FCall _ | FCallM _ -> true
  | _ -> false

let rewrite_func (f : func) : int (* #asserts *) =
  let states = Infer.analyze f in
  let transfer = Infer.transfer f in
  let n = Array.length f.fn_body in
  (* decide inserted instructions per original pc *)
  let before : Hhbc.Instr.t list array = Array.make n [] in
  let after : Hhbc.Instr.t list array = Array.make n [] in
  let count = ref 0 in
  for pc = 0 to n - 1 do
    match states.(pc) with
    | None -> ()   (* dead code: leave as-is *)
    | Some st ->
      let i = f.fn_body.(pc) in
      List.iter
        (fun l ->
           let t = st.Infer.locals.(l) in
           let t = R.meet t R.init_cell in  (* reads require initialized *)
           if interesting t then begin
             before.(pc) <- AssertRATL (l, t) :: before.(pc);
             incr count
           end)
        (local_assert_before i);
      if stack_assert_after i then begin
        (* the post-state's top-of-stack type *)
        match (transfer i st).Infer.stack with
        | t :: _ when interesting t ->
          after.(pc) <- [ AssertRATStk (0, t) ];
          incr count
        | _ -> ()
      end
  done;
  (* compute new positions *)
  let new_pos = Array.make (n + 1) 0 in
  let acc = ref 0 in
  for pc = 0 to n - 1 do
    new_pos.(pc) <- !acc + List.length before.(pc);
    acc := new_pos.(pc) + 1 + List.length after.(pc)
  done;
  new_pos.(n) <- !acc;
  (* jump targets land *before* the target's inserted asserts, so the asserts
     re-execute on every entry (they are facts of the program point) *)
  let target_pos pc = new_pos.(pc) - List.length before.(pc) in
  let remap (i : Hhbc.Instr.t) : Hhbc.Instr.t =
    match i with
    | Jmp t -> Jmp (target_pos t)
    | JmpZ t -> JmpZ (target_pos t)
    | JmpNZ t -> JmpNZ (target_pos t)
    | IterInit (id, t) -> IterInit (id, target_pos t)
    | IterNext (id, t) -> IterNext (id, target_pos t)
    | i -> i
  in
  let out = ref [] in
  for pc = n - 1 downto 0 do
    out := before.(pc) @ (remap f.fn_body.(pc) :: after.(pc)) @ !out
  done;
  f.fn_body <- Array.of_list !out;
  Hhbc.Instr.invalidate_flat f;
  (* exception regions move with their instructions *)
  f.fn_ex_table <-
    List.map
      (fun e ->
         { e with
           ex_start = target_pos e.ex_start;
           ex_end = target_pos e.ex_end;
           ex_handler = target_pos e.ex_handler })
      f.fn_ex_table;
  !count

(** Run hhbbc over a whole unit (paper Fig. 1's hhbbc stage).  Returns the
    total number of assertions inserted. *)
let run (u : Hhbc.Hunit.t) : int =
  Array.fold_left (fun acc f -> acc + rewrite_func f) 0 u.Hhbc.Hunit.functions
