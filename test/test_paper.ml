(** Pins on the paper's numbers.

    Every figure rests on simulated cycles, which are deterministic, so
    the values EXPERIMENTS.md reports can be pinned to the bit: Figure 8's
    weighted cycles/request per execution mode, Figure 10's per ablation,
    and Table 1's constraint, guard-relaxation and RCE counts.  A change
    that moves one of them on purpose updates the pin, the document and
    CHANGES.md together.

    On top of the exact pins, the suite asserts the paper's qualitative
    claims (§6), which must survive any deliberate recalibration:
    the mode ordering, the sign and ranking of the ablations, the
    sub-additivity of all-PGO, Figure 9's A < B < C, and Figure 9's
    post-publication plateau at the steady state. *)

(* ---- One Region baseline, shared by Figures 8 and 10 and Table 1 ---- *)

let constraint_names =
  [ "Generic"; "Countness"; "BoxAndCountness"; "BoxAndCountnessInit";
    "Specific"; "Specialized" ]

type table1 = {
  t_constraints : (string * int) list;
  t_relax : int list;
  (* widened to Uncounted, dropped (generic), dropped (Generic constraint),
     kept, sibling translations subsumed *)
  t_rce : int * int;              (* pairs eliminated, DecRefNZ *)
}

(* Table 1 reads the registries of the run that just finished: the next
   engine install resets the TransCFG and the relaxation/RCE stats. *)
let read_table1 () : table1 =
  let counts = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _ (b : Region.Rdesc.block) ->
       List.iter
         (fun (g : Region.Rdesc.guard) ->
            let k = Region.Rdesc.constraint_name g.g_constraint in
            Hashtbl.replace counts k
              (1 + Option.value (Hashtbl.find_opt counts k) ~default:0))
         b.b_preconds)
    Region.Transcfg.blocks_by_id;
  let s = Region.Relax.stats and r = Hhir_opt.Rce.stats in
  { t_constraints =
      List.map
        (fun k -> (k, Option.value (Hashtbl.find_opt counts k) ~default:0))
        constraint_names;
    t_relax =
      List.map Atomic.get
        [ s.relaxed_to_uncounted; s.relaxed_to_generic; s.dropped_generic;
          s.kept; s.blocks_subsumed ];
    t_rce = (Atomic.get r.pairs_eliminated, Atomic.get r.decref_nz) }

let region =
  lazy
    (let r = Server.Perflab.run Core.Jit_options.Region in
     (r, read_table1 ()))

let mode_results =
  lazy
    (List.map
       (fun (name, mode) ->
          ( name,
            if mode = Core.Jit_options.Region then fst (Lazy.force region)
            else Server.Perflab.run mode ))
       Server.Perflab.modes)

let ablation_results =
  lazy
    (List.map
       (fun (name, tweak) ->
          (name, Server.Perflab.run Core.Jit_options.Region ~tweak))
       Server.Perflab.ablations)

let weighted (r : Server.Perflab.result) = r.Server.Perflab.r_weighted

(* ---- Pinned values ---- *)

let pinned_modes =
  [ ("Interp", 88462.370666666669);
    ("JIT-Tracelet", 16250.361555555557);
    ("JIT-Profile", 33735.682222222218);
    ("JIT-Region", 12799.836444444445) ]

let pinned_ablations =
  [ ("Inlining", 14318.671999999999);
    ("RCE", 13668.490444444446);
    ("Guard Relax.", 13229.268444444444);
    ("Method Disp.", 13647.819777777777);
    ("PGO Layout", 12929.441777777778);
    ("All PGO", 13841.472888888888);
    ("Huge Pages", 12963.93422222222) ]

let pinned_table1 =
  { t_constraints =
      [ ("Generic", 13); ("Countness", 18); ("BoxAndCountness", 111);
        ("BoxAndCountnessInit", 23); ("Specific", 101); ("Specialized", 30) ];
    t_relax = [ 213; 52; 34; 262; 38 ];
    t_rce = (65, 62) }

(* ---- Figure 8 ---- *)

let test_fig8_hashes () =
  match Lazy.force mode_results with
  | [] -> Alcotest.fail "no modes"
  | (_, r0) :: rest ->
    List.iter
      (fun (name, (r : Server.Perflab.result)) ->
         Alcotest.(check int) (name ^ ": output hash equals Interp's")
           r0.Server.Perflab.r_output_hash r.Server.Perflab.r_output_hash)
      rest

let test_fig8_pins () =
  let results = Lazy.force mode_results in
  Alcotest.(check (list string)) "the figure's modes"
    (List.map fst pinned_modes) (List.map fst results);
  List.iter2
    (fun (name, pin) (_, r) ->
       Alcotest.(check (float 0.0)) (name ^ ": weighted cycles/req") pin
         (weighted r))
    pinned_modes results

let test_fig8_shape () =
  let c name = weighted (List.assoc name (Lazy.force mode_results)) in
  (* performance Interp < Profile < Tracelet < Region, i.e. cycles the
     other way round *)
  Alcotest.(check bool) "Interp slower than JIT-Profile" true
    (c "Interp" > c "JIT-Profile");
  Alcotest.(check bool) "JIT-Profile slower than JIT-Tracelet" true
    (c "JIT-Profile" > c "JIT-Tracelet");
  Alcotest.(check bool) "JIT-Tracelet slower than JIT-Region" true
    (c "JIT-Tracelet" > c "JIT-Region")

(* ---- Figure 10 ---- *)

let test_fig10_pins () =
  let results = Lazy.force ablation_results in
  Alcotest.(check (list string)) "the figure's ablations"
    (List.map fst pinned_ablations) (List.map fst results);
  List.iter2
    (fun (name, pin) (_, r) ->
       Alcotest.(check (float 0.0)) (name ^ ": weighted cycles/req") pin
         (weighted r))
    pinned_ablations results

let test_fig10_shape () =
  let base = weighted (fst (Lazy.force region)) in
  let slow = List.map (fun (n, r) -> (n, weighted r -. base))
      (Lazy.force ablation_results) in
  List.iter
    (fun (name, d) ->
       Alcotest.(check bool) (name ^ ": positive slowdown") true (d > 0.0))
    slow;
  let largest =
    List.fold_left (fun (bn, bd) (n, d) -> if d > bd then (n, d) else (bn, bd))
      ("", neg_infinity) slow
  in
  Alcotest.(check string) "inlining is the largest" "Inlining" (fst largest);
  let parts =
    List.fold_left (fun a n -> a +. List.assoc n slow) 0.0
      [ "Guard Relax."; "Method Disp."; "PGO Layout" ]
  in
  Alcotest.(check bool) "all-PGO below the sum of its parts" true
    (List.assoc "All PGO" slow < parts)

(* ---- Table 1 ---- *)

let test_table1_pins () =
  let t = snd (Lazy.force region) in
  Alcotest.(check (list (pair string int))) "constraint counts"
    pinned_table1.t_constraints t.t_constraints;
  Alcotest.(check (list int)) "guard-relaxation stats" pinned_table1.t_relax
    t.t_relax;
  Alcotest.(check (pair int int)) "RCE pairs / DecRefNZ" pinned_table1.t_rce
    t.t_rce

(* ---- Figure 9 ---- *)

let test_fig9_points () =
  let tr = Server.Startup.simulate ~total_minutes:12.0 () in
  Alcotest.(check bool) "point A before point B" true
    (tr.t_point_a_min < tr.t_point_b_min);
  Alcotest.(check bool) "point B before point C" true
    (tr.t_point_b_min < tr.t_point_c_min);
  (* once optimized code is published, throughput sits at the stream's
     own steady state *)
  List.iter
    (fun (s : Server.Startup.sample) ->
       if s.s_minute > tr.t_point_c_min +. 0.5 then
         Alcotest.(check bool)
           (Printf.sprintf "minute %.1f: %.1f%% within 95-105%% of steady"
              s.s_minute s.s_rps_pct)
           true
           (s.s_rps_pct >= 95.0 && s.s_rps_pct <= 105.0))
    tr.t_samples

let suite =
  ( "paper",
    [ Alcotest.test_case "fig8: output hashes equal across modes" `Quick
        test_fig8_hashes;
      Alcotest.test_case "fig8: cycles/req pinned per mode" `Quick
        test_fig8_pins;
      Alcotest.test_case "fig8: Interp < Profile < Tracelet < Region" `Quick
        test_fig8_shape;
      Alcotest.test_case "fig10: cycles/req pinned per ablation" `Quick
        test_fig10_pins;
      Alcotest.test_case "fig10: slowdowns positive, inlining largest, \
                          all-PGO sub-additive" `Quick test_fig10_shape;
      Alcotest.test_case "table1: constraint, relaxation and RCE counts"
        `Quick test_table1_pins;
      Alcotest.test_case "fig9: points A < B < C, post-publish plateau"
        `Quick test_fig9_points ] )
