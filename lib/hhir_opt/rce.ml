(** Reference-counting elimination (paper §5.3.2) — one of the paper's two
    novel optimizations.

    RCE sinks IncRef instructions forward past instructions that cannot
    observe a reference count that is one lower; when a sunk IncRef becomes
    immediately adjacent to a DecRef of the *same* value, the pair cancels.
    Only IncRefs move — DecRefs may run destructors, whose execution point
    is observable (§1).

    Observation points (the count being one lower matters):
    - a DecRef of a possibly-aliasing value (could reach zero early and run
      a destructor / free at the wrong point);
    - array mutation of a possibly-aliasing base (COW triggers on count 1);
    - any call or helper that can reach user code or inspect the value;
    - publication of the value to VM memory (StLoc/StStk/StPropRaw): the
      memory reference is the one the IncRef accounts for;
    - any point where control can leave compiled code (checks, branches,
      exits): the interpreter must see exact counts.

    A conservative lower-bound argument also converts DecRef to DecRefNZ
    (refcount specialization, Fig. 7): if the block performed a surviving
    IncRef on the same value earlier and the value came from a still-live
    memory location, the count cannot be 1 at the DecRef. *)

open Hhir.Ir
module R = Hhbc.Rtype

(* bumped from JIT worker domains during parallel retranslate-all; atomic
   counters keep the totals exact under any schedule *)
type stats = {
  pairs_eliminated : int Atomic.t;
  decref_nz : int Atomic.t;
}

let stats = { pairs_eliminated = Atomic.make 0; decref_nz = Atomic.make 0 }
let reset_stats () =
  Atomic.set stats.pairs_eliminated 0;
  Atomic.set stats.decref_nz 0

let may_alias (a : tmp) (b : tmp) : bool =
  R.maybe_counted a.t_ty && R.maybe_counted b.t_ty
  && not (R.is_bottom (R.meet a.t_ty b.t_ty))

(** Can [i] observe that count([t]) is one lower than expected? *)
let observes (i : instr) (t : tmp) : bool =
  match i.i_op with
  | DecRef | DecRefNZ ->
    (match i.i_args with
     | [ u ] -> u == t || may_alias u t
     | _ -> true)
  | ArrSet | ArrAppend | ArrUnset ->
    (* COW reads the base's count *)
    (match i.i_args with
     | base :: _ -> base == t || may_alias base t
     | _ -> true)
  | StLoc _ | StStk _ | StPropRaw _ | StPropGen _ ->
    (* publishing t itself: the pending IncRef accounts for this reference *)
    List.exists (fun a -> a == t) i.i_args
  | CallPhp _ | CallPhpT _ | CallMethodSlow _ | CallMethodCached _
  | CallCtor _ | CallBuiltin _ | GenBinop _ | GenUnop _ | GenPrint
  | LdPropGen _ | IncDecProp _ | IssetPropGen _
  | InstanceOfGen _ ->
    (* helpers may copy, store, or release values *)
    R.maybe_counted t.t_ty
  | CheckLoc _ | CheckStk _ | CheckType | ReqBind _ | Jmp | JmpZero
  | JmpNZero | RetC | Teardown
  | IterInitH _ | IterKVH _ | IterNextH _ | IterFreeH _ ->
    true   (* control can leave compiled code (or frame state changes) *)
  | _ -> false

let run (u : t) : int =
  let eliminated = ref 0 in
  List.iter
    (fun (_, b) ->
       let arr = Array.of_list b.b_instrs in
       let n = Array.length arr in
       let dead = Array.make n false in
       for idx = 0 to n - 1 do
         match arr.(idx).i_op, arr.(idx).i_args with
         | IncRef, [ t ] when not dead.(idx) ->
           (* try to sink this IncRef until a matching DecRef or an
              observation point *)
           let j = ref (idx + 1) in
           let stop = ref false in
           while not !stop && !j < n do
             let ij = arr.(!j) in
             if dead.(!j) then incr j
             else begin
               match ij.i_op, ij.i_args with
               | DecRef, [ t' ] when t' == t ->
                 (* adjacent (modulo non-observers): cancel the pair *)
                 dead.(idx) <- true;
                 dead.(!j) <- true;
                 incr eliminated;
                 Atomic.incr stats.pairs_eliminated;
                 stop := true
               | _ ->
                 if observes ij t then stop := true
                 else incr j
             end
           done
         | _ -> ()
       done;
       (* refcount specialization: DecRef -> DecRefNZ when a surviving
          IncRef on the same tmp precedes it with the source location
          still live (the memory reference keeps the count >= 2) *)
       let incref_live : (int, unit) Hashtbl.t = Hashtbl.create 8 in
       for idx = 0 to n - 1 do
         if not dead.(idx) then begin
           let i = arr.(idx) in
           match i.i_op, i.i_args with
           | IncRef, [ t ] -> Hashtbl.replace incref_live t.t_id ()
           | DecRef, [ t ] when Hashtbl.mem incref_live t.t_id ->
             i.i_op <- DecRefNZ;
             Hashtbl.remove incref_live t.t_id;
             Atomic.incr stats.decref_nz
             (* publication (StLoc/StStk/StPropRaw) does NOT clear the
                protection: the stored reference keeps the count >= 2 until
                the slot is overwritten, which emits a DecRef of the old
                value and resets the set below *)
           | (CallPhp _ | CallPhpT _ | CallMethodSlow _ | CallMethodCached _
             | CallCtor _ | CallBuiltin _ | ArrSet | ArrAppend | ArrUnset
             | GenBinop _ | Teardown | IterKVH _ | IterInitH _), _ ->
             Hashtbl.reset incref_live
           | (DecRef | DecRefNZ), _ -> Hashtbl.reset incref_live
           | _ -> ()
         end
       done;
       b.b_instrs <-
         List.filteri (fun idx _ -> not dead.(idx)) (Array.to_list arr))
    u.blocks;
  !eliminated
