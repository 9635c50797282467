(** Reference-counted heap with allocation audit.

    All counted values (strings, arrays, objects) are allocated here.  The
    audit table records every live allocation so tests can assert that a
    program neither leaks nor double-frees — this is the safety net under
    the JIT's reference-counting elimination pass.

    Object destructors must run at the exact program point where the last
    reference dies (observable refcounting, paper §1).  Destructors are
    MiniPHP code, so freeing an object calls back into the interpreter via
    {!destructor_hook}, which the VM installs at startup.

    Accounting is {b per domain}: the heap's stats, audit table and
    allocation-id counters are fields of the domain's {!Ledger.acct}, so
    parallel request serving neither races the audit table nor loses
    stat updates.  Values themselves may flow between domains (the shared
    unit's static strings, for instance); only the bookkeeping is
    domain-local.  A scheduler merges worker accounts back with
    {!Ledger.absorb} after joining, so process-wide totals stay exact.

    Hot callers hold the account already (the interpreter's [frame.acct],
    the SimCPU machine's) and use the [_on] variants; the plain ones read
    the domain-local account themselves. *)

open Value

type stats = Ledger.acct = {
  mutable a_cycles : int;
  mutable a_interp : int;
  mutable a_jit : int;
  mutable a_instrs : int;
  mutable allocated : int;
  mutable freed : int;
  mutable live : int;
  mutable incref_ops : int;
  mutable decref_ops : int;
  a_audit : Ledger.Audit.t;
  mutable a_next_id : int;
  mutable a_next_obj : int;
}

(** This domain's account, read for its heap fields (a live record:
    reads are current). *)
let stats () : stats = Ledger.acct ()

let audit_enabled = ref true

(** Installed by the VM: runs a MiniPHP [__destruct] method. *)
let destructor_hook : (obj counted -> unit) ref =
  ref (fun _ -> ())

(* Class-table query installed by Vclass to avoid a module cycle: returns
   whether the class (or an ancestor) defines __destruct. *)
let has_destructor_hook : (int -> bool) ref = ref (fun _ -> false)

let reset () =
  let a = stats () in
  a.allocated <- 0; a.freed <- 0; a.live <- 0;
  a.incref_ops <- 0; a.decref_ops <- 0;
  Ledger.Audit.reset a.a_audit;
  a.a_next_id <- 0;
  a.a_next_obj <- 0

(* [kind] is a {!Ledger.Audit} kind code *)
let counted_on (a : stats) (kind : int) (id : int) (data : 'a) : 'a counted =
  a.allocated <- a.allocated + 1;
  a.live <- a.live + 1;
  if !audit_enabled then Ledger.Audit.add a.a_audit id kind;
  { rc = 1; id; data }

let alloc_on (a : stats) (kind : int) (data : 'a) : 'a counted =
  a.a_next_id <- a.a_next_id + 1;
  counted_on a kind a.a_next_id data

let alloc_arr (data : arr) : arr counted =
  alloc_on (stats ()) Ledger.Audit.kind_arr data

let free_on (a : stats) (node : 'a counted) (kind : int) =
  if !audit_enabled && not (Ledger.Audit.remove a.a_audit node.id kind) then
    failwith
      (Printf.sprintf "heap audit: double free of %s#%d"
         (Ledger.Audit.kind_name kind) node.id);
  a.freed <- a.freed + 1;
  a.live <- a.live - 1;
  (* Poison the refcount so a use-after-free trips the audit. *)
  node.rc <- min_int

(** Leak check: returns descriptions of this domain's live allocations,
    as [kind#id], by id. *)
let live_allocations () =
  Ledger.Audit.live (stats ()).a_audit
  |> List.map (fun (id, kind) ->
      Printf.sprintf "%s#%d" (Ledger.Audit.kind_name kind) id)

let new_str_on (a : stats) (s : string) : value =
  VStr (alloc_on a Ledger.Audit.kind_str s)

let new_str (s : string) : value = new_str_on (stats ()) s

(** Static (uncounted) string: not tracked by the audit, never freed. *)
let static_str (s : string) : value =
  let a = stats () in
  a.a_next_id <- a.a_next_id + 1;
  VStr { rc = static_rc; id = a.a_next_id; data = s }

let empty_arr_data () : arr =
  { entries = [||]; count = 0; index = no_index; next_ikey = 0;
    packed = true }

let new_arr_on (a : stats) : value =
  VArr (alloc_on a Ledger.Audit.kind_arr (empty_arr_data ()))

let new_arr () : value = new_arr_on (stats ())

let new_arr_node () : arr counted = alloc_arr (empty_arr_data ())

(** An object of class [cls] owning [props] (one reference each),
    numbered in the domain's object id space. *)
let new_obj (cls : int) (props : value array) : value =
  let a = stats () in
  a.a_next_obj <- a.a_next_obj + 1;
  VObj (counted_on a Ledger.Audit.kind_obj a.a_next_obj { cls; props })

(** IncRef: no-op on uncounted values.  Counted in [stats] so benchmarks can
    report refcounting-operation rates (the RCE pass reduces these). *)
let incref_on (a : stats) (v : value) =
  match v with
  | VStr n ->
    if n.rc <> static_rc then begin
      n.rc <- n.rc + 1;
      a.incref_ops <- a.incref_ops + 1
    end
  | VArr n ->
    n.rc <- n.rc + 1;
    a.incref_ops <- a.incref_ops + 1
  | VObj n ->
    n.rc <- n.rc + 1;
    a.incref_ops <- a.incref_ops + 1
  | _ -> ()

let incref (v : value) =
  match v with
  | VStr _ | VArr _ | VObj _ -> incref_on (stats ()) v
  | _ -> ()

let rec decref_on (a : stats) (v : value) =
  match v with
  | VStr n ->
    if n.rc <> static_rc then begin
      a.decref_ops <- a.decref_ops + 1;
      if n.rc <= 0 then failwith (Printf.sprintf "heap audit: decref of dead str#%d" n.id);
      n.rc <- n.rc - 1;
      if n.rc = 0 then free_on a n Ledger.Audit.kind_str
    end
  | VArr n ->
    a.decref_ops <- a.decref_ops + 1;
    if n.rc <= 0 then failwith (Printf.sprintf "heap audit: decref of dead arr#%d" n.id);
    n.rc <- n.rc - 1;
    if n.rc = 0 then begin
      (* Release elements before freeing the container. *)
      let d = n.data in
      for i = 0 to d.count - 1 do
        decref_on a (snd d.entries.(i))
      done;
      free_on a n Ledger.Audit.kind_arr
    end
  | VObj n ->
    a.decref_ops <- a.decref_ops + 1;
    if n.rc <= 0 then failwith (Printf.sprintf "heap audit: decref of dead obj#%d" n.id);
    n.rc <- n.rc - 1;
    if n.rc = 0 then begin
      (* Run the destructor at the exact point the last reference dies.
         The destructor sees a live object (rc temporarily resurrected to 1
         so `$this` inside __destruct does not re-enter destruction).  It
         runs on this domain, so [a] is still its account. *)
      if !has_destructor_hook n.data.cls then begin
        n.rc <- 1;
        !destructor_hook n;
        n.rc <- n.rc - 1;
        if n.rc > 0 then () (* destructor leaked a reference on purpose *)
        else free_obj a n
      end else
        free_obj a n
    end
  | _ -> ()

and free_obj a n =
  Array.iter (decref_on a) n.data.props;
  free_on a n Ledger.Audit.kind_obj

let decref (v : value) =
  match v with
  | VStr _ | VArr _ | VObj _ -> decref_on (stats ()) v
  | _ -> ()

(** DecRef for values statically known to have refcount > 1 (emitted by the
    JIT's refcount specialization); checked in debug. *)
let decref_nz_on (a : stats) (v : value) =
  match v with
  | VStr n ->
    if n.rc <> static_rc then begin
      a.decref_ops <- a.decref_ops + 1; n.rc <- n.rc - 1;
      if n.rc <= 0 then failwith "decref_nz reached zero"
    end
  | VArr n ->
    a.decref_ops <- a.decref_ops + 1; n.rc <- n.rc - 1;
    if n.rc <= 0 then failwith "decref_nz reached zero"
  | VObj n ->
    a.decref_ops <- a.decref_ops + 1; n.rc <- n.rc - 1;
    if n.rc <= 0 then failwith "decref_nz reached zero"
  | _ -> ()

let refcount = function
  | VStr n -> n.rc
  | VArr n -> n.rc
  | VObj n -> n.rc
  | _ -> 0
