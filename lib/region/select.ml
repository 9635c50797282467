(** Tracelet selection (paper §4.1): symbolic execution of bytecode from a
    start pc, consulting an oracle (the live VM state) for the types of
    inputs it needs, and emitting type guards for them.

    A tracelet is "a maximal sequence of bytecode instructions that can be
    compiled in a type-specialized manner simply by inspecting the live
    state of the VM, without guessing types or branch directions".  The
    selector ends a block:
    - after an instruction that pushes a value of unknown (non-specific)
      type — the value is flushed to the VM stack and the *next* block
      guards that stack slot (this is how Fig. 4's [S:7 Int] / [S:7 Double]
      preconditions arise);
    - at PHP-level control transfers (calls, object construction);
    - at branches — always in profiling mode (§4.1 item 1, for accurate
      block counters); in live mode unconditional forward jumps are
      followed (gen-1 behaviour).

    While executing, every use of a guarded input raises that guard's type
    constraint (Table 1): a store's decref of the old value needs only
    [BoxAndCountness]; arithmetic needs [Specific]; array and property
    accesses need [Specialized]. *)

open Hhbc.Instr
module R = Hhbc.Rtype
open Rdesc

type mode = MLive | MProfiling

type sym = {
  ty : R.t;
  src : guard option;   (* provenance: the entry guard this value came from *)
}

type st = {
  locals : (int, sym) Hashtbl.t;
  mutable stack : sym list;       (* symbolic stack, top first *)
  mutable entry_used : int;       (* entry stack slots materialized so far *)
  mutable guards : guard list;    (* reversed *)
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

let raise_constraint (s : sym) (c : type_constraint) =
  match s.src with
  | Some g -> g.g_constraint <- constraint_max g.g_constraint c
  | None -> ()

let known v = { ty = v; src = None }

exception End_block of [ `Before | `After ]

let select (u : Hhbc.Hunit.t) ~(func_id : int) ~(start : int) ~(mode : mode)
    ~(oracle : loc -> R.t) ?(max_instrs = 48) ?(counter : int option)
    () : Rdesc.block =
  let f = Hhbc.Hunit.func u func_id in
  let code = f.fn_body in
  let st = { locals = Hashtbl.create 8; stack = []; entry_used = 0; guards = [] } in
  let add_guard loc =
    let g = { g_loc = loc; g_type = oracle loc; g_constraint = Generic } in
    st.guards <- g :: st.guards;
    g
  in
  (* Read a local's symbolic value, guarding on first touch of entry state. *)
  let local_sym (l : int) : sym =
    match Hashtbl.find_opt st.locals l with
    | Some s -> s
    | None ->
      let g = add_guard (LLocal l) in
      let s = { ty = g.g_type; src = Some g } in
      Hashtbl.replace st.locals l s;
      s
  in
  let set_local (l : int) (s : sym) = Hashtbl.replace st.locals l s in
  let push s = st.stack <- s :: st.stack in
  let pop () : sym =
    match st.stack with
    | s :: rest -> st.stack <- rest; s
    | [] ->
      (* consuming a value that was on the VM stack at entry *)
      let g = add_guard (LStack st.entry_used) in
      st.entry_used <- st.entry_used + 1;
      { ty = g.g_type; src = Some g }
  in
  (* push a result; if its type is unknown (non-specific), the block ends
     after this instruction and the value is flushed to the VM stack *)
  let end_pending = ref false in
  let check_result_specific (s : sym) =
    push s;
    if not (R.is_specific s.ty) then end_pending := true
  in
  let len = ref 0 in
  let pc = ref start in
  (* "end after the current instruction": count it and stop *)
  let end_after () =
    len := !len + 1;
    pc := !pc + 1;
    raise (End_block `After)
  in
  (try
     while !len < max_instrs do
       if !pc >= Array.length code then raise (End_block `Before);
       let i = code.(!pc) in
       (match i with
        (* ---- constants ---- *)
        | Int _ -> push (known R.int)
        | Dbl _ -> push (known R.dbl)
        | String _ -> push (known R.sstr)
        | True | False -> push (known R.bool)
        | Null -> push (known R.init_null)
        | NewArray -> push (known R.packed_arr)
        | AddNewElemC ->
          let v = pop () in
          let a = pop () in
          raise_constraint v Countness;
          raise_constraint a Specialized;
          push { ty = R.meet a.ty R.arr; src = None }
        | AddElemC ->
          let v = pop () in
          let k = pop () in
          let a = pop () in
          raise_constraint v Countness;
          raise_constraint k Specific;
          raise_constraint a Specialized;
          push (known (R.make R.b_arr))
        (* ---- locals ---- *)
        | CGetL l | CGetQuietL l ->
          let s = local_sym l in
          raise_constraint s BoxAndCountnessInit;   (* incref + init check *)
          push { s with ty = R.meet s.ty R.init_cell }
        | CGetL2 l ->
          let t = pop () in
          let s = local_sym l in
          raise_constraint s BoxAndCountnessInit;
          push { s with ty = R.meet s.ty R.init_cell };
          push t
        | PushL l ->
          let s = local_sym l in
          raise_constraint s BoxAndCountnessInit;
          set_local l (known R.uninit);
          push { s with ty = R.meet s.ty R.init_cell }
        | SetL l ->
          let old = local_sym l in
          raise_constraint old BoxAndCountness;     (* decref of old value *)
          let v = match st.stack with
            | v :: _ -> v
            | [] -> let v = pop () in push v; v
          in
          raise_constraint v Countness;             (* incref of new value *)
          set_local l v
        | PopL l ->
          let old = local_sym l in
          raise_constraint old BoxAndCountness;
          let v = pop () in
          set_local l v
        | PopC ->
          let v = pop () in
          raise_constraint v Countness
        | Dup ->
          let v = pop () in
          raise_constraint v Countness;
          push v; push v
        | IncDecL (l, op) ->
          let s = local_sym l in
          raise_constraint s Specific;
          let nt, result = Hhbc.Optype.incdec op s.ty in
          set_local l (known nt);
          check_result_specific (known result)
        | IssetL _ -> push (known R.bool)
        | UnsetL l ->
          let s = local_sym l in
          raise_constraint s BoxAndCountness;
          set_local l (known R.uninit)
        (* ---- operators ---- *)
        | Binop op ->
          let b = pop () in
          let a = pop () in
          raise_constraint a Specific;
          raise_constraint b Specific;
          check_result_specific (known (Hhbc.Optype.binop op a.ty b.ty))
        | Unop op ->
          (* a non-specific negation does not end the block *)
          let v = pop () in
          raise_constraint v Specific;
          push (known (Hhbc.Optype.unop op v.ty))
        | InstanceOf _ ->
          let v = pop () in
          raise_constraint v Specific;
          push (known R.bool)
        | IsTypeL (l, _) ->
          (* reads only the tag: Generic knowledge suffices *)
          ignore (local_sym l);
          push (known R.bool)
        (* ---- members ---- *)
        | QueryM_Elem ->
          let k = pop () in
          let b = pop () in
          raise_constraint k Specific;
          raise_constraint b Specialized;
          check_result_specific (known R.init_cell)
        | QueryM_Prop _ ->
          let b = pop () in
          raise_constraint b Specialized;
          check_result_specific (known R.init_cell)
        | SetM_ElemL l ->
          let v = pop () in
          let k = pop () in
          let base = local_sym l in
          raise_constraint base Specialized;
          raise_constraint k Specific;
          raise_constraint v Countness;
          set_local l (known (R.make R.b_arr));
          push v
        | SetM_NewElemL l ->
          let v = pop () in
          let base = local_sym l in
          raise_constraint base Specialized;
          raise_constraint v Countness;
          let nt = if R.subtype base.ty R.packed_arr then R.packed_arr
            else R.make R.b_arr in
          set_local l (known nt);
          push v
        | UnsetM_ElemL l ->
          let k = pop () in
          let base = local_sym l in
          raise_constraint base Specialized;
          raise_constraint k Specific;
          set_local l (known (R.make R.b_arr))
        | SetM_Prop _ ->
          let v = pop () in
          let b = pop () in
          raise_constraint b Specialized;
          raise_constraint v Countness;
          push v
        | IncDecM_Prop (_, op) ->
          let b = pop () in
          raise_constraint b Specialized;
          check_result_specific (known (Hhbc.Optype.incdec_prop op))
        | IssetM_Elem ->
          let k = pop () in
          let b = pop () in
          raise_constraint k Specific;
          raise_constraint b Specialized;
          push (known R.bool)
        | IssetM_Prop _ ->
          let b = pop () in
          raise_constraint b Specialized;
          push (known R.bool)
        | Print ->
          let v = pop () in
          raise_constraint v Specific
        | This -> push (known (match f.fn_cls with
            | Some c -> R.obj_sub c
            | None -> R.obj))
        (* ---- assertions: free static knowledge ---- *)
        | AssertRATL (l, t) ->
          (match Hashtbl.find_opt st.locals l with
           | Some s -> set_local l { s with ty = R.meet s.ty t }
           | None -> set_local l (known t))
        | AssertRATStk (off, t) ->
          st.stack <-
            List.mapi
              (fun j s -> if j = off then { s with ty = R.meet s.ty t } else s)
              st.stack
        | Nop -> ()
        (* ---- block-ending instructions ---- *)
        | Jmp _ -> end_after ()
        | JmpZ _ | JmpNZ _ ->
          let v = pop () in
          raise_constraint v Specific;
          end_after ()
        | IterInit _ ->
          let a = pop () in
          raise_constraint a Specialized;
          end_after ()
        | IterKV (_, kloc, vloc) ->
          (match kloc with
           | Some kl ->
             let old = local_sym kl in
             raise_constraint old BoxAndCountness;
             set_local kl (known (R.join R.int R.sstr))
           | None -> ());
          let oldv = local_sym vloc in
          raise_constraint oldv BoxAndCountness;
          set_local vloc (known R.init_cell)
        | IterNext _ | IterFree _ -> end_after ()
        | RetC ->
          let v = pop () in
          raise_constraint v Generic;
          end_after ()
        | Throw ->
          let v = pop () in
          raise_constraint v Generic;
          end_after ()
        | Fatal _ -> end_after ()
        | FCall (_, n) | FCallD (_, n) ->
          for _ = 1 to n do ignore (pop ()) done;
          (* the callee's result is on the stack when the next block runs *)
          push (known R.init_cell);
          end_after ()
        | FCallM (_, n) ->
          for _ = 1 to n do ignore (pop ()) done;
          let recv = pop () in
          raise_constraint recv Specialized;
          push (known R.init_cell);
          end_after ()
        | NewObjD (cname, n) ->
          for _ = 1 to n do ignore (pop ()) done;
          push (known (R.obj_exact cname));
          end_after ()
        | FCallBuiltin (name, n) ->
          for _ = 1 to n do
            let a = pop () in
            raise_constraint a Specific
          done;
          check_result_specific (known (Vm.Builtins.return_type name))
       );
       (* normal fall-through advance *)
       len := !len + 1;
       pc := !pc + 1;
       if !end_pending then raise (End_block `After)
     done
   with
   | End_block (`After | `Before) -> ());
  (* postconditions: known local types and residual stack types *)
  let postconds =
    Hashtbl.fold
      (fun l (s : sym) acc ->
         if R.is_bottom s.ty then acc else (LLocal l, s.ty) :: acc)
      st.locals []
  in
  let postconds =
    postconds
    @ List.filteri (fun _ _ -> true) (List.mapi (fun d s -> (LStack d, s.ty)) st.stack)
  in
  let exit_sp = List.length st.stack - st.entry_used in
  let b =
    { b_id = fresh_block_id ();
      b_func = func_id;
      b_start = start;
      b_len = !pc - start;
      b_preconds = List.rev st.guards;
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
