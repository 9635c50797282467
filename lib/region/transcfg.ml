(** The TransCFG (paper §5.2.1): the control-flow graph over the basic-block
    regions created for a function's profiling translations.

    Nodes are profiling blocks (several blocks can share a bytecode address,
    one per observed input-type combination — retranslation siblings).
    Block weights come from the profile counters inserted after each
    block's guards; arc weights are recorded as profiling translations
    transfer control to one another, into the domain's {!Vm.Prof} write
    context like every other profile count, and read from the canonical
    profile. *)

(* registry of profiling blocks, per function *)
let blocks_by_func : (int, Rdesc.block list ref) Hashtbl.t = Hashtbl.create 64

(* all registered blocks by id *)
let blocks_by_id : (int, Rdesc.block) Hashtbl.t = Hashtbl.create 256

let c_blocks_registered = Obs.Vmstats.counter "region.blocks_registered"

(* structural version: bumped when the set of registered blocks changes
   (not on weight bumps).  Lets retranslate-all cache derived structures
   (C3 size tables, method-edge lists) across repeated invocations. *)
let version_ = ref 0
let version () = !version_

let reset () =
  Hashtbl.reset blocks_by_func;
  Hashtbl.reset blocks_by_id;
  incr version_

let register_block (b : Rdesc.block) =
  Obs.Vmstats.bump c_blocks_registered;
  incr version_;
  Hashtbl.replace blocks_by_id b.b_id b;
  let lst =
    match Hashtbl.find_opt blocks_by_func b.b_func with
    | Some l -> l
    | None ->
      let l = ref [] in
      Hashtbl.replace blocks_by_func b.b_func l;
      l
  in
  lst := b :: !lst

(** Drop one function's profiling blocks (and every arc touching them)
    from the registry.  Called when the TC lifecycle evicts all of a cold
    function's optimized translations: the profile describes a traffic
    phase that has passed, and keeping it would make the next
    retranslate-all resurrect exactly the code that was just evicted.  A
    later re-profile of the function starts clean. *)
let prune_func (fid : int) : unit =
  match Hashtbl.find_opt blocks_by_func fid with
  | None -> ()
  | Some lst ->
    let ids = Hashtbl.create 16 in
    List.iter
      (fun (b : Rdesc.block) ->
         Hashtbl.replace ids b.b_id ();
         Hashtbl.remove blocks_by_id b.b_id)
      !lst;
    Hashtbl.remove blocks_by_func fid;
    Vm.Prof.prune_arcs (Hashtbl.mem ids);
    incr version_

(* --- serialization (jumpstart, paper §6.2) --- *)

(** A self-contained copy of the registry: blocks in registration order
    (block ids are allocated at selection time and registration follows
    immediately, so ascending id order {e is} registration order — the
    order [build] reconstructs for region formation).  The arc weights
    travel with the profile's export.  [Rdesc.block] is plain data, so
    the export is Marshal-safe. *)
type export = {
  ex_blocks : Rdesc.block array;       (* ascending b_id *)
}

let export () : export =
  let blocks =
    Hashtbl.fold (fun _ b acc -> b :: acc) blocks_by_id []
    |> List.sort (fun (a : Rdesc.block) b -> compare a.b_id b.b_id)
    |> Array.of_list
  in
  { ex_blocks = blocks }

(** Rebuild the registry from a deserialized export (fresh-process
    jumpstart, after the installing [reset]).  Registration order is
    replayed block by block so [build]'s node order — and therefore
    region formation — matches the dumping process exactly. *)
let import (e : export) : unit =
  reset ();
  Array.iter
    (fun (b : Rdesc.block) ->
       Hashtbl.replace blocks_by_id b.b_id b;
       let lst =
         match Hashtbl.find_opt blocks_by_func b.b_func with
         | Some l -> l
         | None ->
           let l = ref [] in
           Hashtbl.replace blocks_by_func b.b_func l;
           l
       in
       lst := b :: !lst)
    e.ex_blocks;
  incr version_

let block (id : int) : Rdesc.block = Hashtbl.find blocks_by_id id

let block_weight (b : Rdesc.block) : int =
  match b.b_counter with
  | Some c -> Vm.Prof.read_counter c
  | None -> 0

type t = {
  nodes : Rdesc.block list;            (* this function's profiling blocks *)
  t_arcs : ((int * int) * int) list;   (* (src, dst), weight *)
}

let build (func_id : int) : t =
  let nodes =
    match Hashtbl.find_opt blocks_by_func func_id with
    | Some l -> List.rev !l
    | None -> []
  in
  let ids = List.fold_left (fun s b -> Hashtbl.replace s b.Rdesc.b_id (); s)
      (Hashtbl.create 16) nodes in
  let t_arcs =
    Vm.Prof.fold_arcs
      (fun s d w acc ->
         if Hashtbl.mem ids s && Hashtbl.mem ids d then ((s, d), w) :: acc
         else acc)
      []
  in
  { nodes; t_arcs }

let succs (cfg : t) (id : int) : (int * int) list =
  List.filter_map (fun ((s, d), w) -> if s = id then Some (d, w) else None)
    cfg.t_arcs

(* ------------------------------------------------------------------ *)
(* Frozen snapshot (parallel retranslate-all)                          *)
(* ------------------------------------------------------------------ *)

(** An immutable view of the TransCFG for a set of functions, built on the
    main domain before the parallel compile phase.  Workers form regions
    and read block weights exclusively through the snapshot: the live
    registry and the profile counters are never touched off the main
    domain, and weights cannot drift mid-retranslate (requests executing
    profiling code concurrently would otherwise make region shape depend
    on timing). *)
type snapshot = {
  sn_cfgs : (int, t) Hashtbl.t;            (* func id -> built cfg *)
  sn_blocks : (int, Rdesc.block) Hashtbl.t;
  sn_weights : (int, int) Hashtbl.t;       (* block id -> frozen weight *)
}

let snapshot (funcs : int list) : snapshot =
  let sn_cfgs = Hashtbl.create (2 * List.length funcs + 1) in
  let sn_blocks = Hashtbl.create 256 in
  let sn_weights = Hashtbl.create 256 in
  List.iter
    (fun fid ->
       let cfg = build fid in
       Hashtbl.replace sn_cfgs fid cfg;
       List.iter
         (fun (b : Rdesc.block) ->
            Hashtbl.replace sn_blocks b.b_id b;
            Hashtbl.replace sn_weights b.b_id (block_weight b))
         cfg.nodes)
    funcs;
  { sn_cfgs; sn_blocks; sn_weights }

let snap_cfg (s : snapshot) (fid : int) : t =
  Option.value (Hashtbl.find_opt s.sn_cfgs fid) ~default:{ nodes = []; t_arcs = [] }

let snap_block (s : snapshot) (id : int) : Rdesc.block =
  Hashtbl.find s.sn_blocks id

let snap_weight (s : snapshot) (b : Rdesc.block) : int =
  Option.value (Hashtbl.find_opt s.sn_weights b.Rdesc.b_id) ~default:0
