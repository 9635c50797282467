(** The cycle ledger: the shared "performance" currency of the whole system.

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
    back into its own with {!absorb} after joining them. *)

type acct = {
  mutable a_cycles : int;
  (* Split accounting, for the startup experiment (§6.2: time spent in live
     vs optimized code) and the mode comparison. *)
  mutable a_interp : int;
  mutable a_jit : int;
}

let fresh () : acct = { a_cycles = 0; a_interp = 0; a_jit = 0 }

let key : acct Domain.DLS.key = Domain.DLS.new_key fresh

(** This domain's account. *)
let acct () : acct = Domain.DLS.get key

let charge n = let a = acct () in a.a_cycles <- a.a_cycles + n

(** Charge interpreter cycles through a pre-fetched account: hot loops
    (the bytecode dispatch loop) resolve the domain-local account once
    per activation instead of paying the DLS read per instruction.  The
    account is per-domain and an activation never migrates domains, so
    holding it across the loop is safe. *)
let charge_interp_on (a : acct) (n : int) =
  a.a_cycles <- a.a_cycles + n;
  a.a_interp <- a.a_interp + n

let charge_jit n =
  let a = acct () in
  a.a_cycles <- a.a_cycles + n;
  a.a_jit <- a.a_jit + n

(** Like {!charge_interp_on} but for JIT execution: the SimCPU inner loop
    resolves the domain-local account once per translation run. *)
let charge_jit_on (a : acct) (n : int) =
  a.a_cycles <- a.a_cycles + n;
  a.a_jit <- a.a_jit + n

let reset () =
  let a = acct () in
  a.a_cycles <- 0; a.a_interp <- 0; a.a_jit <- 0

let read () = (acct ()).a_cycles
let interp_cycles () = (acct ()).a_interp
let jit_cycles () = (acct ()).a_jit

(** Overwrite this domain's total (the startup simulation rolls the clock
    back to un-charge background-compile time). *)
let set_cycles n = (acct ()).a_cycles <- n

(** Fold a joined worker's account into this domain's (scheduler join). *)
let absorb (w : acct) =
  let a = acct () in
  a.a_cycles <- a.a_cycles + w.a_cycles;
  a.a_interp <- a.a_interp + w.a_interp;
  a.a_jit <- a.a_jit + w.a_jit
