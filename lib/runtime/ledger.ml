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
    stats, audit table and allocation-id counter) and its count of
    interpreted instructions, so one domain-local read gives a hot caller
    everything it charges or counts.  The SimCPU engine fetches the
    account once per machine (a machine is its domain's) and binds each
    frame it enters to it; the interpreter fetches it at most once per
    frame ([frame.acct]).  Both pass it to the [_on] variants here and in
    {!Heap}; cold callers use the wrappers that read the domain-local key
    themselves. *)

(* The heap audit: allocation id -> kind ("str", "arr", "obj").  Ids are
   dense per domain, so the id is its own hash — no polymorphic hashing
   per allocation or free. *)
module Audit = Hashtbl.Make (struct
    type t = int
    let equal = Int.equal
    let hash (id : int) = id land max_int
  end)

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
  a_audit : string Audit.t;
  mutable a_next_id : int;        (* last allocation id handed out *)
}

let fresh () : acct =
  { a_cycles = 0; a_interp = 0; a_jit = 0; a_instrs = 0;
    allocated = 0; freed = 0; live = 0; incref_ops = 0; decref_ops = 0;
    a_audit = Audit.create 256; a_next_id = 0 }

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
