(** Perflab (paper §6): deterministic A/B performance measurement.

    The real Perflab replays thousands of requests from dozens of production
    endpoints on 15 physical servers and reports weighted-average CPU time
    per request with 99% confidence intervals.  Our substrate is simulated,
    so "CPU time" is simulated cycles from the shared ledger; the weighted
    average uses the endpoint mix weights; confidence intervals come from
    repeating the measurement phase over independent request sets. *)

open Workloads.Endpoints

(* Warmup rounds over the weighted mix; measured requests per endpoint,
   per set; independent measurement sets (the CI's sample size). *)
let warmup_rounds = 30
let measured_per_endpoint = 30
let sets = 3

(* Two-sided 99% Student t quantile for [sets - 1 = 2] degrees of
   freedom: three sets are far too few for the normal quantile. *)
let t99 = 9.925

type result = {
  r_weighted : float;            (* weighted avg cycles per request *)
  r_ci99 : float;                (* +- 99% confidence interval *)
  r_code_bytes : int;            (* budget-counted: Main, Cold and Live *)
  r_output_hash : int;           (* sanity: outputs must match across modes *)
  r_engine : Core.Engine.t;
}

(** [Serving.call_endpoint], under the name perfbench's suite calls. *)
let call_endpoint = Serving.call_endpoint

(** Run the full lifecycle for one configuration and measure. *)
let measure (opts : Core.Jit_options.t) : result =
  (* warmup replays the weighted mix (profiles, live translations), then
     Region mode reoptimizes the whole program *)
  let u, eng =
    Serving.bring_up ~opts
      ~warmup:(Serving.mix ~base:0 ~rounds:warmup_rounds ()) ()
  in
  let neps = List.length endpoints in
  let out_hash = ref 0 in
  let set_results =
    List.init sets (fun set ->
        (* one request per endpoint per step, interleaved across endpoints
           as production traffic is: consecutive requests run different
           code, which is what makes i-cache/I-TLB locality (layout,
           splitting, sorting, huge pages) matter at all *)
        let requests =
          Array.init (measured_per_endpoint * neps) (fun j ->
              { Serving.rq_ep = List.nth endpoints (j mod neps);
                rq_arg = 1000 + set * 131 + j / neps })
        in
        (* one domain, explicitly: cycles/req must not depend on the
           engine's request_workers *)
        let r = Serving.run ~workers:1 u eng requests in
        Array.iteri
          (fun j out ->
             let ep = requests.(j).Serving.rq_ep in
             out_hash :=
               !out_hash lxor Hashtbl.hash (ep.ep_name, (j / neps) land 7, out))
          r.Serving.sv_outputs;
        Serving.weighted_cycles requests r.Serving.sv_cycles)
  in
  let n = float_of_int sets in
  let mean = List.fold_left ( +. ) 0.0 set_results /. n in
  (* sample variance: the mean is estimated from the same sets *)
  let var =
    List.fold_left (fun a w -> a +. (w -. mean) ** 2.0) 0.0 set_results
    /. (n -. 1.0)
  in
  { r_weighted = mean;
    r_ci99 = t99 *. sqrt var /. sqrt n;
    r_code_bytes = Simcpu.Codecache.bytes_counted eng.Core.Engine.cache;
    r_output_hash = !out_hash;
    r_engine = eng }

(** Fig. 8's execution modes, in the order the figure prints them. *)
let modes : (string * Core.Jit_options.mode) list =
  [ ("Interp", Core.Jit_options.Interp);
    ("JIT-Tracelet", Core.Jit_options.Tracelet);
    ("JIT-Profile", Core.Jit_options.ProfileOnly);
    ("JIT-Region", Core.Jit_options.Region) ]

(** Fig. 10's ablations: each tweak disables one optimization of the
    Region-mode baseline. *)
let ablations : (string * (Core.Jit_options.t -> unit)) list =
  [ ("Inlining", fun o -> o.inlining <- false);
    ("RCE", fun o -> o.rce <- false);
    ("Guard Relax.", fun o -> o.guard_relax <- false);
    ("Method Disp.",
     fun o -> o.method_dispatch <- false; o.inline_cache <- false);
    ("PGO Layout", fun o -> o.pgo_layout <- false; o.function_sort <- false);
    ("All PGO", Core.Jit_options.disable_all_pgo);
    ("Huge Pages", fun o -> o.huge_pages <- false) ]

(** Measure with a given mode and option tweak (the A/B harness). *)
let run ?(tweak = fun (_ : Core.Jit_options.t) -> ())
    (mode : Core.Jit_options.mode) : result =
  let opts = Core.Jit_options.default () in
  opts.mode <- mode;
  tweak opts;
  measure opts
