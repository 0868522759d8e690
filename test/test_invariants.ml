(* Cross-module invariants: properties that tie the theory modules
   together on random platforms, checked with qcheck.  These are the
   repository's "global" consistency laws. *)

module Star = Platform.Star
module Processor = Platform.Processor
module Rng = Numerics.Rng

let random_star ?(min_p = 1) ?(max_p = 12) seed =
  let rng = Rng.create ~seed () in
  let p = min_p + Rng.int rng (max_p - min_p + 1) in
  let speeds = List.init p (fun _ -> Rng.uniform rng 0.2 20.) in
  Star.of_speeds ~bandwidth:(Rng.uniform rng 0.5 10.) speeds

let qtest name f = QCheck.Test.make ~name ~count:150 QCheck.small_int f

(* One-port can never beat parallel links (strictly fewer constraints). *)
let one_port_dominated =
  qtest "one-port makespan >= parallel makespan" (fun seed ->
      let star = random_star seed in
      Dlt.Linear.one_port_makespan star ~total:50.
      >= Dlt.Linear.parallel_makespan star ~total:50. -. 1e-9)

(* Any valid schedule is at least the perfect-parallelism bound. *)
let makespan_above_ideal =
  qtest "linear schedules respect the ideal bound" (fun seed ->
      let star = random_star seed in
      let ideal = Dlt.Bounds.ideal_makespan star Dlt.Cost_model.Linear ~total:50. in
      Dlt.Linear.parallel_makespan star ~total:50. >= ideal -. 1e-9)

(* The nonlinear solver degrades gracefully: makespan is monotone in the
   load. *)
let nonlinear_monotone_in_load =
  qtest "nonlinear makespan monotone in total" (fun seed ->
      let star = random_star seed in
      let cost = Dlt.Cost_model.Power 2. in
      let span total =
        snd (Dlt.Nonlinear.equal_finish_allocation Dlt.Schedule.Parallel star cost ~total)
      in
      span 10. <= span 20. +. 1e-9)

(* Strategy ordering on every platform: the lower bound is a lower
   bound, and the balanced subdivision never ships less than Commhom. *)
let strategy_ordering =
  qtest "LB <= Commhet and Commhom <= Commhom/k" (fun seed ->
      let star = random_star ~min_p:2 seed in
      let r = Partition.Strategies.evaluate star in
      r.Partition.Strategies.het >= 1. -. 1e-6
      && r.Partition.Strategies.hom_over_k >= r.Partition.Strategies.hom -. 1e-6)

(* The PERI-SUM guarantee, on every platform. *)
let peri_sum_guarantee =
  qtest "column DP within 7/4 of the lower bound" (fun seed ->
      let star = random_star seed in
      let areas = Star.relative_speeds star in
      let cost = (Partition.Column_partition.peri_sum ~areas).Partition.Column_partition.cost in
      let lb = Partition.Lower_bound.peri_sum ~areas in
      cost <= (1. +. (1.25 *. lb)) +. 1e-9 && cost >= lb -. 1e-9)

(* Zones realize the layout: integer half-perimeter sum within rounding
   of the continuous one. *)
let zones_track_layout =
  qtest "integer zones track the continuous layout" (fun seed ->
      let star = random_star ~min_p:1 ~max_p:8 seed in
      let n = 64 in
      let zones = Linalg.Zone.for_platform star ~n in
      let continuous =
        Partition.Layout.sum_half_perimeters
          (Partition.Column_partition.peri_sum_layout ~areas:(Star.relative_speeds star))
      in
      let integer = float_of_int (Linalg.Zone.half_perimeter_sum zones) in
      Float.abs (integer -. (continuous *. float_of_int n))
      <= 2. *. float_of_int (Star.size star))

(* Steady state bounds the batch problem: a batch of W takes at least
   W / throughput under the one-port model. *)
let steady_state_bounds_batch =
  qtest "batch makespan >= total / steady-state throughput" (fun seed ->
      let star = random_star seed in
      let throughput = (Dlt.Steady_state.one_port star).Dlt.Steady_state.throughput in
      Dlt.Linear.one_port_makespan star ~total:100. >= (100. /. throughput) -. 1e-6)

(* The sorting gap formula agrees with the measured divisible fraction
   for equal buckets. *)
let sorting_gap_consistency =
  qtest "sorting gap closed form" (fun seed ->
      let rng = Rng.create ~seed () in
      let p = 2 + Rng.int rng 14 in
      let per = 500 + Rng.int rng 2_000 in
      let n = p * per in
      let star = Star.of_speeds (List.init p (fun _ -> 1.)) in
      let timing =
        Sortlib.Parallel_model.evaluate star ~bucket_sizes:(Array.make p per) ~s:16
      in
      let predicted = Dlt.Fraction.sorting_gap ~n:(float_of_int n) ~p in
      Float.abs (1. -. timing.Sortlib.Parallel_model.divisible_fraction -. predicted)
      < 1e-9)

(* Multi-round with 1 round reproduces the static schedule under both
   models. *)
let multi_round_base_case =
  qtest "1-round dispatch equals the static schedule" (fun seed ->
      let star = random_star seed in
      let allocation = Dlt.Linear.parallel_allocation star ~total:30. in
      let simulated =
        Dlt.Multi_round.makespan Dlt.Schedule.Parallel star Dlt.Cost_model.Linear
          ~allocation ~rounds:1
      in
      Float.abs (simulated -. Dlt.Linear.parallel_makespan star ~total:30.) < 1e-6)

(* Fluid with dedicated links reproduces the independent-link model. *)
let fluid_dedicated_links =
  qtest "fluid with private links = independent transfer times" (fun seed ->
      let star = random_star ~min_p:1 ~max_p:6 seed in
      let workers = Star.workers star in
      let links =
        Array.map (fun (p : Processor.t) -> { Des.Fluid.capacity = p.Processor.bandwidth }) workers
      in
      let flows =
        Array.to_list
          (Array.mapi (fun i _ -> Des.Fluid.make_flow ~id:i ~size:10. ~links:[ i ] ()) workers)
      in
      let completions = Des.Fluid.run ~links ~flows in
      List.for_all
        (fun c ->
          let proc = workers.(c.Des.Fluid.flow) in
          Float.abs (c.Des.Fluid.finish -. (10. /. proc.Processor.bandwidth)) < 1e-6)
        completions)

let suites =
  [
    ( "cross-module invariants",
      List.map QCheck_alcotest.to_alcotest
        [
          one_port_dominated;
          makespan_above_ideal;
          nonlinear_monotone_in_load;
          strategy_ordering;
          peri_sum_guarantee;
          zones_track_layout;
          steady_state_bounds_batch;
          sorting_gap_consistency;
          multi_round_base_case;
          fluid_dedicated_links;
        ] );
  ]
