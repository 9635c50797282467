(** Unit loading: the front door of the VM.

    [load] takes MiniPHP source through parse → constant folding → bytecode
    emission, registers classes into the runtime class table, and wires the
    runtime hooks (subclass queries for the type lattice, object
    destructors).  By default it also resets all per-program VM state —
    heap audit, cycle ledger, class table, output buffer, RNG, dispatcher
    and JIT hooks — so consecutive loads are independent. *)

(** The standard prelude compiled into every program: the [Exception] base
    class and its common subclasses. *)
val prelude : string

(** Register a unit's classes into {!Runtime.Vclass} in dependency order
    (parents before children), then build every class's construction
    template ({!Interp.templates}).  Raises a PHP fatal on unknown
    parents. *)
val register_classes : Hhbc.Hunit.t -> unit

(** Install the runtime hooks for a loaded unit: subclass resolution for
    {!Hhbc.Rtype} and the [__destruct] dispatcher for {!Runtime.Heap}. *)
val wire_hooks : Hhbc.Hunit.t -> unit

(** [load src] parses, folds, emits and registers [src].
    @param reset reset per-program VM state first (default [true])
    @param with_prelude prepend {!prelude} (default [true]) *)
val load : ?reset:bool -> ?with_prelude:bool -> string -> Hhbc.Hunit.t
