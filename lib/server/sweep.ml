(** Code-size sweep (paper Fig. 11 / §6.4): performance as a function of the
    JITed-code budget.

    The baseline runs with an unlimited budget; its budget-counted bytes
    ([Perflab.r_code_bytes]: Main, Cold and Live, not the profiling code
    retranslate-all discards) define 100%.  Each point caps the budget at
    a fraction of that; bytecode that no longer fits runs in the
    interpreter, and the harness reports relative performance and the
    translations the budget refused. *)

type point = {
  p_fraction : float;          (* budget / baseline counted bytes *)
  p_perf_pct : float;          (* weighted performance vs baseline *)
  p_code_bytes : int;          (* counted bytes at the end of the run *)
  p_rejected : int;            (* translations the budget refused *)
}

let default_fractions =
  [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0; 1.1; 1.2 ]

let run ?(fractions = default_fractions) () : point list * int =
  (* baseline: unlimited *)
  let base = Perflab.run Core.Jit_options.Region in
  let base_bytes = base.Perflab.r_code_bytes in
  let base_cycles = base.Perflab.r_weighted in
  let points =
    List.map
      (fun f ->
         let r =
           Perflab.run Core.Jit_options.Region
             ~tweak:(fun o ->
                 o.Core.Jit_options.code_budget <-
                   Some (int_of_float (f *. float_of_int base_bytes)))
         in
         (* install resets the registry, so the counter is this run's *)
         { p_fraction = f;
           p_perf_pct = 100.0 *. base_cycles /. r.Perflab.r_weighted;
           p_code_bytes = r.Perflab.r_code_bytes;
           p_rejected = Obs.Vmstats.counter_value "translate.rejected" })
      fractions
  in
  (points, base_bytes)
