(** Backend tests: HHIR optimization passes, Vasm register allocation,
    layout, jump optimization, C3 function sorting, and the SimCPU models. *)

module R = Hhbc.Rtype
open Hhir.Ir

let t name f = Alcotest.test_case name `Quick f

(* Build a tiny IR unit by hand. *)
let mk_unit () =
  let u' = Hhbc.Emit.compile "function f() { return 1; }" in
  let f = Hhbc.Hunit.func u' 0 in
  Hhir.Ir.create u' f

let emit u b ?dst ?taken op args =
  ignore (append u b ~dst ~taken ~bcpc:0 op args)

let emitd u b ?taken op args ty =
  let d = new_tmp u ty in
  ignore (append u b ~dst:(Some d) ~taken ~bcpc:0 op args);
  d

let hhir_tests = [
  t "simplify folds constant arithmetic and branches" (fun () ->
      let u = mk_unit () in
      let b = new_block u in
      u.entry <- b.b_id;
      let b2 = new_block u in
      let c1 = emitd u b (ConstInt 2) [] R.int in
      let c2 = emitd u b (ConstInt 3) [] R.int in
      let s = emitd u b AddInt [ c1; c2 ] R.int in
      let five = emitd u b (ConstInt 5) [] R.int in
      let cmp = emitd u b (CmpInt Ceq) [ s; five ] R.bool in
      emit u b ~taken:b2.b_id JmpZero [ cmp ];
      emit u b (StLoc 0) [ s ];
      emit u b (ReqBind 0) [];
      u.exits <- [ { es_pc = 0; es_spdelta = 0; es_inline = None; es_interp = false } ];
      u.n_exits <- 1;
      ignore (Hhir_opt.Simplify.run u);
      ignore (Hhir_opt.Dce.run u);
      (* 2+3 = 5, so 5 == 5 is true, so JmpZero never fires -> Nop'd *)
      let has_branch =
        List.exists
          (fun i -> match i.i_op with JmpZero -> true | _ -> false)
          b.b_instrs
      in
      Alcotest.(check bool) "branch folded away" false has_branch);
  t "gvn merges congruent pure instructions" (fun () ->
      let u = mk_unit () in
      let b = new_block u in
      u.entry <- b.b_id;
      let x = emitd u b (LdLoc 0) [] R.int in
      let a1 = emitd u b AddInt [ x; x ] R.int in
      let a2 = emitd u b AddInt [ x; x ] R.int in
      emit u b (StLoc 1) [ a1 ];
      emit u b (StLoc 2) [ a2 ];
      let n = Hhir_opt.Gvn.run u in
      Alcotest.(check bool) "one value numbered away" true (n >= 1);
      ignore (Hhir_opt.Dce.run u);
      let adds =
        List.length
          (List.filter (fun i -> i.i_op = AddInt) b.b_instrs)
      in
      Alcotest.(check int) "single AddInt remains" 1 adds);
  t "load elimination forwards stored values" (fun () ->
      let u = mk_unit () in
      let b = new_block u in
      u.entry <- b.b_id;
      let c = emitd u b (ConstInt 7) [] R.int in
      emit u b (StLoc 0) [ c ];
      let l = emitd u b (LdLoc 0) [] R.int in
      emit u b (StLoc 1) [ l ];
      let n = Hhir_opt.Load_elim.run u in
      Alcotest.(check int) "one load forwarded" 1 n);
  t "store elimination kills overwritten stores" (fun () ->
      let u = mk_unit () in
      let b = new_block u in
      u.entry <- b.b_id;
      let c1 = emitd u b (ConstInt 1) [] R.int in
      let c2 = emitd u b (ConstInt 2) [] R.int in
      emit u b (StLoc 0) [ c1 ];
      emit u b (StLoc 0) [ c2 ];
      let n = Hhir_opt.Store_elim.run u in
      Alcotest.(check int) "first store dead" 1 n);
  t "store elimination respects observation points" (fun () ->
      let u = mk_unit () in
      let b = new_block u in
      u.entry <- b.b_id;
      let c1 = emitd u b (ConstInt 1) [] R.int in
      let c2 = emitd u b (ConstInt 2) [] R.int in
      emit u b (StLoc 0) [ c1 ];
      ignore (emitd u b (CallBuiltin "count") [ c1 ] R.int);  (* can unwind *)
      emit u b (StLoc 0) [ c2 ];
      let n = Hhir_opt.Store_elim.run u in
      Alcotest.(check int) "no store killed across a call" 0 n);
  t "rce cancels IncRef/DecRef around CountArray (Fig. 6)" (fun () ->
      let u = mk_unit () in
      let b = new_block u in
      u.entry <- b.b_id;
      let arr = emitd u b (LdLoc 0) [] R.arr in
      emit u b IncRef [ arr ];
      let c = emitd u b CountArray [ arr ] R.int in
      emit u b DecRef [ arr ];
      emit u b (StLoc 1) [ c ];
      Hhir_opt.Rce.reset_stats ();
      let n = Hhir_opt.Rce.run u in
      Alcotest.(check int) "pair eliminated" 1 n;
      let rc_ops =
        List.filter (fun i -> i.i_op = IncRef || i.i_op = DecRef) b.b_instrs
      in
      Alcotest.(check int) "no rc ops remain" 0 (List.length rc_ops));
  t "rce blocked by aliasing DecRef" (fun () ->
      let u = mk_unit () in
      let b = new_block u in
      u.entry <- b.b_id;
      let a1 = emitd u b (LdLoc 0) [] R.arr in
      let a2 = emitd u b (LdLoc 1) [] R.arr in
      emit u b IncRef [ a1 ];
      emit u b DecRef [ a2 ];   (* may alias a1: could free it early *)
      emit u b DecRef [ a1 ];
      let n = Hhir_opt.Rce.run u in
      Alcotest.(check int) "no elimination" 0 n);
  t "rce blocked by a side exit" (fun () ->
      let u = mk_unit () in
      let b = new_block u in
      u.entry <- b.b_id;
      let s = emitd u b (LdLoc 0) [] R.cstr in
      emit u b IncRef [ s ];
      ignore (emitd u b ~taken:99 CheckType [ s ] R.cstr);
      emit u b DecRef [ s ];
      let n = Hhir_opt.Rce.run u in
      Alcotest.(check int) "no elimination across a check" 0 n);
  t "rce converts protected DecRef to DecRefNZ" (fun () ->
      let u = mk_unit () in
      let b = new_block u in
      u.entry <- b.b_id;
      let s = emitd u b (LdLoc 0) [] R.cstr in
      emit u b IncRef [ s ];
      (* publication pins the incref; the later DecRef cannot reach zero *)
      emit u b (StStk 0) [ s ];
      emit u b DecRef [ s ];
      ignore (Hhir_opt.Rce.run u);
      let has_nz = List.exists (fun i -> i.i_op = DecRefNZ) b.b_instrs in
      Alcotest.(check bool) "specialized" true has_nz);
  t "dce drops unused pure ops but keeps effects" (fun () ->
      let u = mk_unit () in
      let b = new_block u in
      u.entry <- b.b_id;
      let dead = emitd u b (ConstInt 1) [] R.int in
      ignore dead;
      let live = emitd u b (ConstInt 2) [] R.int in
      emit u b (StLoc 0) [ live ];
      let n = Hhir_opt.Dce.run u in
      Alcotest.(check bool) "dead const removed" true (n >= 1);
      Alcotest.(check bool) "store kept" true
        (List.exists (fun i -> i.i_op = StLoc 0) b.b_instrs));
  t "unreachable blocks removed" (fun () ->
      let u = mk_unit () in
      let b = new_block u in
      u.entry <- b.b_id;
      u.entries <- [ b.b_id ];
      let dead = new_block u in
      emit u dead (StLoc 3) [ new_tmp u R.int ];
      emit u b RetC [ new_tmp u R.int ];
      let n = Hhir_opt.Unreachable.run u in
      Alcotest.(check int) "one block dropped" 1 n);
]

(* --- Vasm --- *)

open Vasm.Vinstr

let vb id instrs : int vblock = { vb_id = id; vb_instrs = instrs; vb_weight = 1 }

let mk_prog blocks entry : int prog =
  { vblocks = blocks; ventry = entry; ventries = [ entry ];
    vexits = [||]; vnext_reg = 64 }

let vasm_tests = [
  t "regalloc assigns disjoint registers to live ranges" (fun () ->
      let instrs =
        [ VImm (0, Runtime.Value.VInt 1);
          VImm (1, Runtime.Value.VInt 2);
          VArithI (Add, 2, 0, 1);
          VArithI (Add, 3, 2, 0);
          VRet 3 ]
      in
      let p = mk_prog [ vb 0 instrs ] 0 in
      let ra = Vasm.Regalloc.run p ~nregs:8 in
      (* vregs 0 and 1 are simultaneously live: distinct locations *)
      let l0 = Hashtbl.find ra.ra_loc 0 and l1 = Hashtbl.find ra.ra_loc 1 in
      Alcotest.(check bool) "disjoint" true (l0 <> l1);
      Alcotest.(check int) "no spills with 8 regs" 0 ra.ra_spilled);
  t "regalloc spills under pressure and stays correct" (fun () ->
      (* 6 simultaneously live values, 3 registers *)
      let imms = List.init 6 (fun i -> VImm (i, Runtime.Value.VInt i)) in
      let sums =
        [ VArithI (Add, 6, 0, 1); VArithI (Add, 7, 2, 3);
          VArithI (Add, 8, 4, 5); VArithI (Add, 9, 6, 7);
          VArithI (Add, 10, 9, 8); VRet 10 ]
      in
      let p = mk_prog [ vb 0 (imms @ sums) ] 0 in
      let ra = Vasm.Regalloc.run p ~nregs:3 in
      Alcotest.(check bool) "some spills" true (ra.ra_spilled > 0);
      (* all vregs have a location *)
      for v = 0 to 10 do
        Alcotest.(check bool) (Printf.sprintf "vreg %d located" v) true
          (Hashtbl.mem ra.ra_loc v)
      done);
  t "layout splits cold stubs when pgo on" (fun () ->
      let hot = { (vb 0 [ VJmpZ (0, 1); VJmp 2 ]) with vb_weight = 100 } in
      let stub = { (vb 1 [ VReqBind (0, []) ]) with vb_weight = 0 } in
      let next = { (vb 2 [ VRet 0 ]) with vb_weight = 100 } in
      let p = mk_prog [ hot; stub; next ] 0 in
      let _p', sections = Vasm.Layout.run ~pgo:true p in
      Alcotest.(check bool) "stub cold" true
        (Hashtbl.find sections 1 = Vasm.Layout.Cold);
      Alcotest.(check bool) "entry hot" true
        (Hashtbl.find sections 0 = Vasm.Layout.Hot));
  t "layout keeps hot fallthrough stubs hot (weight propagation)" (fun () ->
      (* the stub is reached by an unconditional jump from hot code: it runs
         every iteration (region linkage) and must not be split out *)
      let hot = { (vb 0 [ VJmp 1 ]) with vb_weight = 100 } in
      let exit_stub = { (vb 1 [ VReqBind (0, []) ]) with vb_weight = 0 } in
      let p = mk_prog [ hot; exit_stub ] 0 in
      let _p', sections = Vasm.Layout.run ~pgo:true p in
      Alcotest.(check bool) "linkage stub stays hot" true
        (Hashtbl.find sections 1 = Vasm.Layout.Hot));
  t "jumpopt threads trampolines and strips jump-to-next" (fun () ->
      let b0 = vb 0 [ VJmpZ (0, 1); VJmp 2 ] in
      let tramp = vb 1 [ VJmp 3 ] in
      let b2 = vb 2 [ VRet 0 ] in
      let b3 = vb 3 [ VRet 1 ] in
      let p = mk_prog [ b0; b2; tramp; b3 ] 0 in
      let p' = Vasm.Jumpopt.run p in
      (* the conditional branch now targets 3 directly *)
      let b0' = List.find (fun b -> b.vb_id = 0) p'.vblocks in
      (match b0'.vb_instrs with
       | VJmpZ (_, t) :: _ -> Alcotest.(check int) "threaded" 3 t
       | _ -> Alcotest.fail "unexpected block shape");
      Alcotest.(check bool) "trampoline dropped" true
        (not (List.exists (fun b -> b.vb_id = 1) p'.vblocks)));
]

(* --- C3 --- *)

let c3_tests = [
  t "c3 clusters callee after hot caller" (fun () ->
      let order =
        Core.C3.sort
          ~edges:[ ((0, 2), 100); ((1, 3), 5) ]
          ~sizes:(fun _ -> 100)
          [ 0; 1; 2; 3 ]
      in
      let pos f = Option.get (List.find_index (( = ) f) order) in
      Alcotest.(check int) "callee right after caller" (pos 0 + 1) (pos 2);
      Alcotest.(check bool) "hot cluster before cold" true (pos 0 < pos 1));
  t "c3 respects the cluster size cap" (fun () ->
      let big = 1 lsl 20 in
      let order =
        Core.C3.sort ~edges:[ ((0, 1), 100) ] ~sizes:(fun _ -> big) [ 0; 1 ]
      in
      Alcotest.(check int) "both placed" 2 (List.length order));
  t "c3 keeps all functions" (fun () ->
      let funcs = List.init 20 Fun.id in
      let edges = List.init 19 (fun i -> ((i, i + 1), 20 - i)) in
      let order = Core.C3.sort ~edges ~sizes:(fun _ -> 50) funcs in
      Alcotest.(check int) "all present" 20 (List.length order);
      Alcotest.(check int) "no duplicates" 20
        (List.length (List.sort_uniq compare order)));
]

(* --- SimCPU models --- *)

(* Stamp-LRU references for the fetch models: each way or entry carries
   its last-use stamp and a miss evicts the lowest (the first on a tie).
   The models keep recency order instead; these pin that the traffic is
   the same. *)
module Ref_icache = struct
  type t = { sets : int; ways : int; line_bits : int; tags : int array array;
             lru : int array array; mutable clock : int; mutable accesses : int;
             mutable misses : int; mutable last_line : int }

  let create ~size_kb ~ways ~line_bytes =
    let sets = max 1 (size_kb * 1024 / line_bytes / ways) in
    let rec log2 n = if n = 1 then 0 else 1 + log2 (n / 2) in
    { sets; ways; line_bits = log2 line_bytes;
      tags = Array.init sets (fun _ -> Array.make ways (-1));
      lru = Array.init sets (fun _ -> Array.make ways 0);
      clock = 0; accesses = 0; misses = 0; last_line = -1 }

  let access c addr =
    let line = addr lsr c.line_bits in
    if line = c.last_line then 0
    else begin
      c.last_line <- line;
      c.accesses <- c.accesses + 1;
      c.clock <- c.clock + 1;
      let tags = c.tags.(line mod c.sets) and lru = c.lru.(line mod c.sets) in
      let tag = line / c.sets in
      let hit = ref (-1) in
      Array.iteri (fun w t -> if t = tag then hit := w) tags;
      if !hit >= 0 then begin lru.(!hit) <- c.clock; 0 end
      else begin
        c.misses <- c.misses + 1;
        let victim = ref 0 in
        for w = 1 to c.ways - 1 do if lru.(w) < lru.(!victim) then victim := w done;
        tags.(!victim) <- tag;
        lru.(!victim) <- c.clock;
        Simcpu.Icache.miss_cycles
      end
    end
end

module Ref_itlb = struct
  type t = { pages : int array; stamps : int array; mutable clock : int;
             mutable accesses : int; mutable misses : int; mutable huge : bool;
             mutable lo : int; mutable hi : int; mutable last_page : int }

  let create entries =
    { pages = Array.make entries (-1); stamps = Array.make entries 0; clock = 0;
      accesses = 0; misses = 0; huge = false; lo = 0; hi = 0; last_page = min_int }

  let set_huge t ~enabled ~lo ~hi =
    t.huge <- enabled; t.lo <- lo; t.hi <- hi; t.last_page <- min_int

  let access t addr =
    let page =
      if t.huge && addr >= t.lo && addr < t.hi then
        (addr lsr Simcpu.Itlb.huge_bits) lor (1 lsl 62)
      else addr lsr Simcpu.Itlb.small_bits
    in
    if page = t.last_page then 0
    else begin
      t.last_page <- page;
      t.accesses <- t.accesses + 1;
      t.clock <- t.clock + 1;
      let hit = ref (-1) in
      Array.iteri (fun i p -> if p = page then hit := i) t.pages;
      if !hit >= 0 then begin t.stamps.(!hit) <- t.clock; 0 end
      else begin
        t.misses <- t.misses + 1;
        let victim = ref 0 in
        for i = 1 to Array.length t.pages - 1 do
          if t.stamps.(i) < t.stamps.(!victim) then victim := i
        done;
        t.pages.(!victim) <- page;
        t.stamps.(!victim) <- t.clock;
        Simcpu.Itlb.miss_cycles
      end
    end
end

(* A seeded fetch stream: mostly short forward steps (fall-through within
   and across lines), some nearby branches, some far jumps over a code
   range several times the cache, and now and then a huge-page switch
   whose bounds cut a line. *)
let fetch_equivalence seed =
  let rs = Random.State.make [| seed |] in
  let cfgs = [ (2, 4, 64); (2, 2, 64); (1, 1, 64); (4, 8, 32); (1, 16, 64) ] in
  List.iter
    (fun (size_kb, ways, line_bytes) ->
       let ic = Simcpu.Icache.create ~size_kb ~ways ~line_bytes () in
       let rc = Ref_icache.create ~size_kb ~ways ~line_bytes in
       let entries = 1 + Random.State.int rs 6 in
       let tlb = Simcpu.Itlb.create ~entries () in
       let rt = Ref_itlb.create entries in
       let span = 64 * 1024 in
       let addr = ref 0 in
       for step = 1 to 4000 do
         (match Random.State.int rs 100 with
          | n when n < 70 -> addr := !addr + 1 + Random.State.int rs 12
          | n when n < 90 -> addr := max 0 (!addr + Random.State.int rs 1024 - 512)
          | n when n < 99 -> addr := Random.State.int rs span
          | _ ->
            let enabled = Random.State.bool rs in
            let lo = Random.State.int rs span in
            let hi = lo + 1 + Random.State.int rs (span / 2) in
            Simcpu.Itlb.set_huge tlb ~enabled ~lo ~hi;
            Ref_itlb.set_huge rt ~enabled ~lo ~hi);
         addr := !addr mod span;
         let what =
           Printf.sprintf "seed %d, %dKB/%d-way/%dB, step %d"
             seed size_kb ways line_bytes step
         in
         Alcotest.(check int) (what ^ ": i-cache cost")
           (Ref_icache.access rc !addr) (Simcpu.Icache.access ic !addr);
         Alcotest.(check int) (what ^ ": I-TLB cost")
           (Ref_itlb.access rt !addr) (Simcpu.Itlb.access tlb !addr);
         Alcotest.(check (list int)) (what ^ ": counters")
           [ rc.accesses; rc.misses; rc.last_line;
             rt.accesses; rt.misses; rt.last_page ]
           [ ic.accesses; ic.misses; ic.last_line;
             tlb.accesses; tlb.misses; tlb.last_page ]
       done)
    cfgs

let simcpu_tests = [
  t "icache hits on repeated access, misses on conflict sweep" (fun () ->
      let c = Simcpu.Icache.create ~size_kb:2 ~ways:2 ~line_bytes:64 () in
      let cost1 = Simcpu.Icache.access c 0 in
      Alcotest.(check bool) "first access misses" true (cost1 > 0);
      c.last_line <- -1;   (* defeat the same-line fast path *)
      let cost2 = Simcpu.Icache.access c 0 in
      Alcotest.(check int) "second access hits" 0 cost2;
      (* sweep far beyond capacity, then return *)
      for i = 1 to 200 do
        c.last_line <- -1;
        ignore (Simcpu.Icache.access c (i * 64))
      done;
      c.last_line <- -1;
      let cost3 = Simcpu.Icache.access c 0 in
      Alcotest.(check bool) "evicted after sweep" true (cost3 > 0));
  t "itlb huge pages collapse a hot range to one entry" (fun () ->
      let t4 = Simcpu.Itlb.create ~entries:2 () in
      (* touch 8 small pages round-robin: thrashes a 2-entry TLB *)
      let page b = b * 512 in
      let misses_before = ref 0 in
      for _ = 1 to 4 do
        for p = 0 to 7 do
          t4.last_page <- min_int;
          misses_before := !misses_before + (if Simcpu.Itlb.access t4 (page p) > 0 then 1 else 0)
        done
      done;
      Alcotest.(check bool) "thrash without huge pages" true (!misses_before > 8);
      let th = Simcpu.Itlb.create ~entries:2 () in
      Simcpu.Itlb.set_huge th ~enabled:true ~lo:0 ~hi:(page 8);
      let misses_huge = ref 0 in
      for _ = 1 to 4 do
        for p = 0 to 7 do
          th.last_page <- min_int;
          misses_huge := !misses_huge + (if Simcpu.Itlb.access th (page p) > 0 then 1 else 0)
        done
      done;
      Alcotest.(check bool) "one huge entry suffices" true (!misses_huge <= 1));
  t "fetch models match a stamp-LRU reference" (fun () ->
      List.iter fetch_equivalence [ 1; 2; 3; 4; 5 ]);
  t "i-cache needs a power-of-two set count" (fun () ->
      Alcotest.check_raises "3 sets"
        (Invalid_argument "Icache.create: sets = 3 is not a power of two")
        (fun () -> ignore (Simcpu.Icache.create ~size_kb:3 ~ways:16 ~line_bytes:64 ())));
  t "codecache budget caps counted sections only" (fun () ->
      let cc = Simcpu.Codecache.create ~budget:100 () in
      Alcotest.(check bool) "main alloc ok" true
        (Simcpu.Codecache.alloc cc Simcpu.Codecache.Main 80 <> None);
      Alcotest.(check bool) "over budget refused" true
        (Simcpu.Codecache.alloc cc Simcpu.Codecache.Main 80 = None);
      Alcotest.(check bool) "profiling section not counted" true
        (Simcpu.Codecache.alloc cc Simcpu.Codecache.Prof 500 <> None));
  t "codecache sections have disjoint address ranges" (fun () ->
      let cc = Simcpu.Codecache.create () in
      let a = Option.get (Simcpu.Codecache.alloc cc Simcpu.Codecache.Main 64) in
      let b = Option.get (Simcpu.Codecache.alloc cc Simcpu.Codecache.Cold 64) in
      let c = Option.get (Simcpu.Codecache.alloc cc Simcpu.Codecache.Prof 64) in
      Alcotest.(check bool) "ordered disjoint" true (a + 64 <= b && b + 64 <= c));
]

let suite = ("backend", hhir_tests @ vasm_tests @ c3_tests @ simcpu_tests)
