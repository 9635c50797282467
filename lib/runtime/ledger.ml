(** The cycle ledger: the shared "performance" currency of the whole system,
    and the one per-domain runtime record.

    The paper's evaluation measures CPU time on production hardware; our
    substrate is simulated, so both the bytecode interpreter and the SimCPU
    execution engine charge simulated cycles here.  Every figure's
    "performance" is requests (or work) per simulated cycle.

    Accounts are {b per domain} (domain-local storage): each request-serving
    domain charges its own account, so parallel serving never loses a cycle
    to a data race and a request's cost is measured on the domain that ran
    it.  Single-domain programs behave exactly as before — the main domain's
    account is created on first use and every read sees every charge.  A
    scheduler that fans requests across domains merges the worker accounts
    back into its own with {!absorb} after joining them.

    The account also carries the domain's heap accounting ({!Heap}'s
    stats, audit table and allocation-id counters) and its count of
    interpreted instructions, so one domain-local read gives a hot caller
    everything it charges or counts.  The SimCPU engine fetches the
    account once per machine (a machine is its domain's) and binds each
    frame it enters to it; the interpreter fetches it at most once per
    frame ([frame.acct]).  Both pass it to the [_on] variants here and in
    {!Heap}; cold callers use the wrappers that read the domain-local key
    themselves. *)

(** The heap audit: the domain's live allocations, each an allocation id
    with its kind code, packed into one word ([id lsl 2 lor kind]) in an
    open-addressing [int array] (linear probing from [id land mask], at
    most half full; 0 = an empty slot).  Ids are dense per domain and per
    id space (objects number apart from strings and arrays, so an object
    and a string may share an id; the word tells them apart), so the id
    is its own hash, and an allocation or free writes one word of a
    preallocated table: nothing is allocated per operation.  A removal
    shifts the rest of its probe run back (no tombstones), so a lookup
    stops at the first empty slot. *)
module Audit = struct
  type t = { mutable slots : int array; mutable n : int }

  (* kind codes; never 0, so a live slot is never 0 *)
  let kind_str = 1
  let kind_arr = 2
  let kind_obj = 3

  let kind_name = function
    | 1 -> "str" | 2 -> "arr" | 3 -> "obj"
    | k -> invalid_arg (Printf.sprintf "Ledger.Audit.kind_name %d" k)

  (* [cap] must be a power of two *)
  let create cap : t = { slots = Array.make cap 0; n = 0 }

  let reset (t : t) =
    Array.fill t.slots 0 (Array.length t.slots) 0;
    t.n <- 0

  let insert (slots : int array) (word : int) =
    let mask = Array.length slots - 1 in
    let i = ref ((word lsr 2) land mask) in
    while slots.(!i) <> 0 do i := (!i + 1) land mask done;
    slots.(!i) <- word

  (** Record allocation [id] (not already present) of kind [kind]. *)
  let add (t : t) (id : int) (kind : int) =
    if 2 * (t.n + 1) > Array.length t.slots then begin
      let old = t.slots in
      t.slots <- Array.make (2 * Array.length old) 0;
      Array.iter (fun w -> if w <> 0 then insert t.slots w) old
    end;
    insert t.slots ((id lsl 2) lor kind);
    t.n <- t.n + 1

  (** Remove allocation [id] of kind [kind]; false if it was not live. *)
  let remove (t : t) (id : int) (kind : int) : bool =
    let slots = t.slots in
    let mask = Array.length slots - 1 in
    let word = (id lsl 2) lor kind in
    let i = ref (id land mask) in
    while slots.(!i) <> 0 && slots.(!i) <> word do
      i := (!i + 1) land mask
    done;
    if slots.(!i) = 0 then false
    else begin
      (* backward shift: move each later entry of the run whose home slot
         does not lie strictly between the hole and it into the hole *)
      let hole = ref !i and j = ref ((!i + 1) land mask) in
      while slots.(!j) <> 0 do
        let home = (slots.(!j) lsr 2) land mask in
        if (!j - home) land mask >= (!j - !hole) land mask then begin
          slots.(!hole) <- slots.(!j);
          hole := !j
        end;
        j := (!j + 1) land mask
      done;
      slots.(!hole) <- 0;
      t.n <- t.n - 1;
      true
    end

  (** The live allocations as [(id, kind code)], by id. *)
  let live (t : t) : (int * int) list =
    Array.fold_left
      (fun acc w -> if w = 0 then acc else (w lsr 2, w land 3) :: acc)
      [] t.slots
    |> List.sort compare
end

type acct = {
  mutable a_cycles : int;
  (* Split accounting, for the startup experiment (§6.2: time spent in live
     vs optimized code) and the mode comparison. *)
  mutable a_interp : int;
  mutable a_jit : int;
  (* bytecode instructions retired by the interpreter *)
  mutable a_instrs : int;
  (* heap accounting, read through [Heap.stats] *)
  mutable allocated : int;        (* total allocations since reset *)
  mutable freed : int;            (* total frees since reset *)
  mutable live : int;             (* currently live counted objects *)
  mutable incref_ops : int;       (* dynamic count of IncRef operations *)
  mutable decref_ops : int;       (* dynamic count of DecRef operations *)
  (* live allocations; filled only while [Heap.audit_enabled] *)
  a_audit : Audit.t;
  mutable a_next_id : int;        (* last string/array id handed out *)
  (* last object id handed out: objects number on their own, so the ids a
     program prints do not depend on how many strings or arrays the
     execution mode allocated before them *)
  mutable a_next_obj : int;
}

let fresh () : acct =
  { a_cycles = 0; a_interp = 0; a_jit = 0; a_instrs = 0;
    allocated = 0; freed = 0; live = 0; incref_ops = 0; decref_ops = 0;
    a_audit = Audit.create 256; a_next_id = 0; a_next_obj = 0 }

let key : acct Domain.DLS.key = Domain.DLS.new_key fresh

(** This domain's account. *)
let acct () : acct = Domain.DLS.get key

let charge n = let a = acct () in a.a_cycles <- a.a_cycles + n

(** Charge interpreter cycles through a pre-fetched account: hot loops
    (the bytecode dispatch loop) hold the frame's account instead of
    paying the DLS read per instruction.  The account is per-domain and
    a frame never migrates domains, so holding it is safe. *)
let charge_interp_on (a : acct) (n : int) =
  a.a_cycles <- a.a_cycles + n;
  a.a_interp <- a.a_interp + n

let charge_jit n =
  let a = acct () in
  a.a_cycles <- a.a_cycles + n;
  a.a_jit <- a.a_jit + n

(** Like {!charge_interp_on} but for JIT execution and dispatch, through
    the account the domain's SimCPU machine holds. *)
let charge_jit_on (a : acct) (n : int) =
  a.a_cycles <- a.a_cycles + n;
  a.a_jit <- a.a_jit + n

(** Zero this domain's cycle counts (heap accounting and the instruction
    count have their own resets). *)
let reset () =
  let a = acct () in
  a.a_cycles <- 0; a.a_interp <- 0; a.a_jit <- 0

let read () = (acct ()).a_cycles
let interp_cycles () = (acct ()).a_interp
let jit_cycles () = (acct ()).a_jit

(** Overwrite this domain's total (the startup simulation rolls the clock
    back to un-charge background-compile time). *)
let set_cycles n = (acct ()).a_cycles <- n

(** Fold a joined worker's account into this domain's (scheduler join):
    cycles, interpreted instructions and heap counts.  [live] carries
    over too, so a leak on any worker shows in the total.  The worker's
    audit table is not merged. *)
let absorb (w : acct) =
  let a = acct () in
  a.a_cycles <- a.a_cycles + w.a_cycles;
  a.a_interp <- a.a_interp + w.a_interp;
  a.a_jit <- a.a_jit + w.a_jit;
  a.a_instrs <- a.a_instrs + w.a_instrs;
  a.allocated <- a.allocated + w.allocated;
  a.freed <- a.freed + w.freed;
  a.live <- a.live + w.live;
  a.incref_ops <- a.incref_ops + w.incref_ops;
  a.decref_ops <- a.decref_ops + w.decref_ops
