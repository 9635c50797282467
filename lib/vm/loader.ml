(** Unit loading: registers classes/interfaces into the runtime class table,
    wires the destructor and subclass hooks, and prepends the standard
    prelude (the [Exception] base class). *)

(** MiniPHP standard prelude, available to every program. *)
let prelude = {|
class Exception {
  public $message = "";
  public $code = 0;
  function __construct($message = "", $code = 0) {
    $this->message = $message;
    $this->code = $code;
  }
  function getMessage() { return $this->message; }
  function getCode() { return $this->code; }
}
class RuntimeException extends Exception {}
class InvalidArgumentException extends Exception {}
class LogicException extends Exception {}
|}

(** Register the unit's classes into {!Runtime.Vclass} in dependency order
    (parents first), then build each one's construction template. *)
let register_classes (u : Hhbc.Hunit.t) =
  let remaining = ref u.Hhbc.Hunit.classes in
  let registered = Hashtbl.create 16 in
  let pass () =
    let again, done_ =
      List.partition
        (fun (ci : Hhbc.Hunit.class_info) ->
           match ci.ci_parent with
           | Some p ->
             not (Hashtbl.mem registered p)
             && Runtime.Vclass.find_opt p = None
           | None -> false)
        !remaining
    in
    List.iter
      (fun (ci : Hhbc.Hunit.class_info) ->
         ignore
           (Runtime.Vclass.register
              ~name:ci.ci_name ~parent:ci.ci_parent
              ~interfaces:ci.ci_implements
              ~props:(List.map fst ci.ci_props)
              ~methods:ci.ci_methods);
         Hashtbl.replace registered ci.ci_name ())
      done_;
    remaining := again;
    done_ <> []
  in
  while pass () do () done;
  (match !remaining with
   | [] -> ()
   | ci :: _ ->
     Runtime.Value.fatal "class %s: unknown parent %s" ci.ci_name
       (Option.value ci.ci_parent ~default:"?"));
  (* one template per class id, from this unit's declarations (an
     object's defaults always came from the constructing code's unit) *)
  Interp.templates :=
    Array.init (Runtime.Vclass.count ()) (fun id ->
        Interp.build_template u (Runtime.Vclass.get id))

(** Wire the runtime hooks that depend on loaded code:
    - subclass queries for the type lattice
    - object destructors (run MiniPHP [__destruct] through the dispatcher) *)
let wire_hooks (u : Hhbc.Hunit.t) =
  Hhbc.Rtype.subclass_hook :=
    (fun sub sup ->
       String.equal sub sup
       || (match Runtime.Vclass.find_opt sub with
           | Some c -> Runtime.Vclass.instanceof c sup
           | None -> false));
  Vm_callable.install u;
  Runtime.Heap.destructor_hook :=
    (fun (o : Runtime.Value.obj Runtime.Value.counted) ->
       let c = Runtime.Vclass.get o.Runtime.Value.data.cls in
       match c.c_dtor with
       | Some fid ->
         let this_ = Runtime.Value.VObj o in
         Runtime.Heap.incref this_;
         let r = !Interp.call_dispatch u fid [||] this_ in
         Runtime.Heap.decref r
       | None -> ())

(** Full load path: parse, fold, emit, register, wire.  Resets per-program
    VM state (heap audit, ledger, output) unless [reset] is false. *)
let load ?(reset = true) ?(with_prelude = true) (src : string) : Hhbc.Hunit.t =
  (* dispatch caches key on (fid, pc) and class ids, both of which restart
     from 0 for a new unit — always drop them, even when [reset] is false *)
  Interp.reset_meth_site_caches ();
  (* flattened code caches resolved direct-call targets and interned
     constants: a reload makes every old unit's flat form stale at once *)
  Interp.bump_flat_epoch ();
  if reset then begin
    Runtime.Heap.reset ();
    Runtime.Ledger.reset ();
    Runtime.Vclass.reset ();
    Output.reset ();
    Builtins.rng_seed 0x12345678;
    Interp.call_dispatch := Interp.call_interpreted;
    Interp.dispatch_caches_enabled := true;
    (* a previously installed JIT engine must not leak into the new unit *)
    Interp.translation_hook := (fun _ _ -> Interp.NoTranslation);
    Interp.hook_active := false
  end;
  let src = if with_prelude then prelude ^ "\n" ^ src else src in
  let u = Hhbc.Emit.compile src in
  register_classes u;
  wire_hooks u;
  u
