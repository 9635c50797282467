(** Reference-counted heap with allocation audit.

    All counted values (strings, arrays, objects) are allocated here.  The
    audit table records every live allocation so tests can assert that a
    program neither leaks nor double-frees — this is the safety net under
    the JIT's reference-counting elimination pass.

    Object destructors run at the exact program point where the last
    reference dies (observable refcounting, paper §1); they are MiniPHP
    code, so freeing an object calls back into the interpreter via
    {!destructor_hook}.

    Accounting is per domain: the stats, audit table and allocation-id
    counters are fields of the domain's {!Ledger.acct}, so parallel
    request serving neither races the audit table nor loses stat
    updates.  Hot callers that hold the account use the [_on] variants;
    the plain ones read the domain-local account themselves. *)

open Value

(** The domain's {!Ledger.acct}; the heap's fields are [allocated]
    through [a_next_obj]. *)
type stats = Ledger.acct = {
  mutable a_cycles : int;
  mutable a_interp : int;
  mutable a_jit : int;
  mutable a_instrs : int;
  mutable allocated : int;
  mutable freed : int;
  mutable live : int;
  mutable incref_ops : int;   (** dynamic IncRef count (reduced by RCE) *)
  mutable decref_ops : int;
  a_audit : Ledger.Audit.t;
  mutable a_next_id : int;
  mutable a_next_obj : int;
}

(** This domain's account (a live record: reads are current). *)
val stats : unit -> stats

(** Audit toggle (process-wide; the table itself is per domain). *)
val audit_enabled : bool ref

(** Runs a MiniPHP [__destruct]; installed by {!Vm.Loader}. *)
val destructor_hook : (obj counted -> unit) ref

(** Class-table query (does this class define a destructor?); installed by
    {!Vclass} to avoid a module cycle. *)
val has_destructor_hook : (int -> bool) ref

(** Reset this domain's heap state (audit, counters, allocation ids). *)
val reset : unit -> unit

(** Allocate a node for existing array data (used by {!Varray.cow});
    audited. *)
val alloc_arr : arr -> arr counted

(** Descriptions of currently live (leaked, if at program end) objects. *)
val live_allocations : unit -> string list

val new_str : string -> value
val new_str_on : stats -> string -> value

(** Uncounted string (bytecode constant pool): never freed, not audited. *)
val static_str : string -> value

val empty_arr_data : unit -> arr
val new_arr : unit -> value
val new_arr_on : stats -> value
val new_arr_node : unit -> arr counted

(** An object of class [cls] that takes over [props] (one reference to
    each counted value). *)
val new_obj : int -> value array -> value

(** No-op on uncounted values. *)
val incref : value -> unit
val incref_on : stats -> value -> unit

(** Releases one reference; frees (and runs destructors / releases
    elements) at zero.  The audit fails loudly on over-release. *)
val decref : value -> unit
val decref_on : stats -> value -> unit

(** DecRef for values statically known to have refcount > 1 (the JIT's
    refcount specialization); checked at runtime. *)
val decref_nz_on : stats -> value -> unit

val refcount : value -> int
