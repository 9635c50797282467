(** Tracelet selection (paper §4.1): symbolic execution of bytecode from a
    start pc, consulting an oracle (the live VM state) for the types of
    inputs it needs, and emitting type guards for them.

    A tracelet is "a maximal sequence of bytecode instructions that can be
    compiled in a type-specialized manner simply by inspecting the live
    state of the VM, without guessing types or branch directions".  Each
    opcode's pops, pushes and local writes are {!Hhbc.Step}'s; what is the
    selector's own is below.  It guards an input on its first touch: a
    local it has not seen, or a stack slot below the ones it pushed.  Every
    use of a guarded input raises that guard's type constraint (Table 1):
    a store's decref of the old value needs only [BoxAndCountness];
    arithmetic needs [Specific]; array and property accesses need
    [Specialized].  The selector ends a block:
    - after an instruction other than a unary operator that pushes a new
      value of unknown (non-specific) type — the value is flushed to the
      VM stack and the *next* block guards that stack slot (this is how
      Fig. 4's [S:7 Int] / [S:7 Double] preconditions arise);
    - after PHP-level control transfers (calls, object construction);
    - after branches, iterators and returns. *)

open Hhbc.Instr
module R = Hhbc.Rtype
open Rdesc

type mode = MLive | MProfiling

type sym = {
  ty : R.t;
  src : guard option;   (* provenance: the entry guard this value came from *)
}

let next_block_id = ref 0
let fresh_block_id () = incr next_block_id; !next_block_id - 1

(* tracelet-selection telemetry: blocks selected (by mode), instruction
   and guard volume, and empty selections (srckeys the JIT gives up on) *)
let c_sel_live = Obs.Vmstats.counter "select.blocks.live"
let c_sel_prof = Obs.Vmstats.counter "select.blocks.profiling"
let c_sel_empty = Obs.Vmstats.counter "select.empty"
let c_sel_instrs = Obs.Vmstats.counter "select.instrs"
let c_sel_guards = Obs.Vmstats.counter "select.guards"

let known v = { ty = v; src = None }

let select (u : Hhbc.Hunit.t) ~(func_id : int) ~(start : int) ~(mode : mode)
    ~(oracle : loc -> R.t) ?(max_instrs = 48) ?(counter : int option)
    () : Rdesc.block =
  let f = Hhbc.Hunit.func u func_id in
  let code = f.fn_body in
  let locals : (int, sym) Hashtbl.t = Hashtbl.create 8 in
  let guards = ref [] in                (* reversed *)
  let entry_used = ref 0 in             (* entry stack slots read so far *)
  let guard loc =
    let g = { g_loc = loc; g_type = oracle loc; g_constraint = Generic } in
    guards := g :: !guards;
    { ty = g.g_type; src = Some g }
  in
  (* set when the step pushes a new value of unknown (non-specific) type *)
  let unknown_result = ref false in
  let m = {
    Hhbc.Step.stack = [];
    (* consuming a value that was on the VM stack at entry *)
    underflow = (fun () ->
        let s = guard (LStack !entry_used) in
        incr entry_used;
        s);
    (* guard a local on its first touch *)
    local = (fun l ->
        match Hashtbl.find_opt locals l with
        | Some s -> s
        | None -> let s = guard (LLocal l) in Hashtbl.replace locals l s; s);
    set_local = Hashtbl.replace locals;
    use = (fun s c ->
        match s.src with
        | Some g -> g.g_constraint <- constraint_max g.g_constraint c
        | None -> ());
    ty = (fun s -> s.ty);
    narrow = (fun s t -> { s with ty = R.meet s.ty t });
    value = known;
    result = (fun t ->
        if not (R.is_specific t) then unknown_result := true;
        known t);
  } in
  let pc = ref start in
  let stop = ref false in
  while not !stop && !pc - start < max_instrs && !pc < Array.length code do
    let i = code.(!pc) in
    unknown_result := false;
    (match i with
     | AssertRATL (l, t) when not (Hashtbl.mem locals l) ->
       (* an untouched local takes the asserted type without a guard *)
       Hashtbl.replace locals l (known t)
     | _ -> Hhbc.Step.step m ~cls:f.fn_cls i);
    incr pc;
    stop :=
      (match i with
       (* branches, iterators and returns *)
       | Jmp _ | JmpZ _ | JmpNZ _ | IterInit _ | IterNext _ | IterFree _
       | RetC | Throw -> true
       (* PHP-level control transfers: the callee's result is on the
          stack when the next block runs *)
       | FCall _ | FCallM _ | NewObjD _ -> true
       (* a non-specific negation or cast does not end the block *)
       | Unop _ -> false
       (* a value of unknown type is flushed to the VM stack, and the next
          block guards it *)
       | _ -> !unknown_result)
  done;
  (* postconditions: known local types and residual stack types *)
  let postconds =
    Hashtbl.fold
      (fun l (s : sym) acc ->
         if R.is_bottom s.ty then acc else (LLocal l, s.ty) :: acc)
      locals []
  in
  let postconds =
    postconds @ List.mapi (fun d s -> (LStack d, s.ty)) m.stack
  in
  let exit_sp = List.length m.stack - !entry_used in
  let b =
    { b_id = fresh_block_id ();
      b_func = func_id;
      b_start = start;
      b_len = !pc - start;
      b_preconds = List.rev !guards;
      b_postconds = postconds;
      b_exit_sp = exit_sp;
      b_counter = counter }
  in
  if b.b_len = 0 then Obs.Vmstats.bump c_sel_empty
  else begin
    Obs.Vmstats.bump (if mode = MProfiling then c_sel_prof else c_sel_live);
    Obs.Vmstats.add c_sel_instrs b.b_len;
    Obs.Vmstats.add c_sel_guards (List.length b.b_preconds)
  end;
  b
