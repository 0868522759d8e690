(* Smoke and shape tests of the experiment drivers: the reproduced
   series must have the paper's qualitative shape even at low trial
   counts. *)

module Fig4 = Experiments.Fig4
module Nonlinear_exp = Experiments.Nonlinear_exp
module Sorting_exp = Experiments.Sorting_exp
module Ratio_exp = Experiments.Ratio_exp
module Mapreduce_exp = Experiments.Mapreduce_exp

let checkb = Alcotest.(check bool)

let test_fig4_homogeneous_shape () =
  let points =
    Fig4.sweep ~processor_counts:[ 10; 40; 100 ] ~trials:5 Platform.Profiles.paper_homogeneous
  in
  List.iter
    (fun pt ->
      checkb "hom at LB" true (Float.abs (pt.Fig4.hom.Numerics.Stats.mean -. 1.) < 1e-9);
      checkb "hom/k at LB" true
        (Float.abs (pt.Fig4.hom_over_k.Numerics.Stats.mean -. 1.) < 1e-9);
      checkb "het within 2%" true (pt.Fig4.het.Numerics.Stats.mean <= 1.02);
      checkb "k stays 1" true (pt.Fig4.mean_k = 1.))
    points

let test_fig4_heterogeneous_shape () =
  (* The paper's headline: under heterogeneity Commhom/k blows up
     (15-30x at p = 100) while Commhet stays within 2% of the bound. *)
  List.iter
    (fun profile ->
      let points = Fig4.sweep ~processor_counts:[ 10; 100 ] ~trials:10 profile in
      match points with
      | [ small; large ] ->
          checkb "het within 5% everywhere" true
            (small.Fig4.het.Numerics.Stats.mean <= 1.05
            && large.Fig4.het.Numerics.Stats.mean <= 1.05);
          checkb "hom/k blows up at p=100" true
            (large.Fig4.hom_over_k.Numerics.Stats.mean > 10.);
          checkb "hom above het" true
            (large.Fig4.hom.Numerics.Stats.mean > 2. *. large.Fig4.het.Numerics.Stats.mean);
          checkb "hom grows with p" true
            (large.Fig4.hom.Numerics.Stats.mean > small.Fig4.hom.Numerics.Stats.mean)
      | _ -> Alcotest.fail "expected two points")
    [ Platform.Profiles.paper_uniform; Platform.Profiles.paper_lognormal ]

let test_fig4_deterministic () =
  let run () =
    Fig4.sweep ~processor_counts:[ 20 ] ~trials:3 ~seed:9 Platform.Profiles.paper_uniform
  in
  match (run (), run ()) with
  | [ a ], [ b ] ->
      Alcotest.(check (float 0.)) "same seed, same mean" a.Fig4.hom.Numerics.Stats.mean
        b.Fig4.hom.Numerics.Stats.mean
  | _ -> Alcotest.fail "expected single points"

let test_e1_exactness () =
  let rows = Nonlinear_exp.run ~alphas:[ 2. ] ~processor_counts:[ 4; 64 ] () in
  List.iter
    (fun r ->
      checkb "homogeneous measured == closed form" true
        (Float.abs (r.Nonlinear_exp.measured_homogeneous -. r.Nonlinear_exp.predicted)
        < 1e-6);
      checkb "heterogeneous same order" true
        (r.Nonlinear_exp.measured_heterogeneous < 3. *. r.Nonlinear_exp.predicted))
    rows

let test_e1_vanishing_with_p () =
  let rows = Nonlinear_exp.run ~alphas:[ 2. ] ~processor_counts:[ 4; 256 ] () in
  match rows with
  | [ small; large ] ->
      checkb "fraction vanishes" true
        (large.Nonlinear_exp.measured_homogeneous
        < small.Nonlinear_exp.measured_homogeneous /. 10.)
  | _ -> Alcotest.fail "expected two rows"

let test_e2_gap_matches () =
  let rows = Sorting_exp.run ~sizes:[ 50_000 ] ~processor_counts:[ 8 ] () in
  List.iter
    (fun (r : Sorting_exp.row) ->
      checkb "measured gap near log p/log N" true
        (Float.abs (r.Sorting_exp.measured_gap -. r.Sorting_exp.predicted_gap) < 0.02);
      checkb "bucket concentration" true
        (r.Sorting_exp.max_bucket_ratio < r.Sorting_exp.envelope +. 0.3))
    rows

(* Exact E2 numbers, recorded as hex floats: any change to the sampling
   draws, the splitter ranks or the bucket routing shows up here before
   it silently moves the paper's table. *)
let test_e2_pinned_values () =
  let hex = Printf.sprintf "%h" in
  let rows = Sorting_exp.run ~sizes:[ 10_000 ] ~processor_counts:[ 4; 16 ] () in
  Alcotest.(check (list (pair string string)))
    "E2 max_bucket_ratio, measured_gap"
    [
      ("0x1.1758e219652bdp+0", "0x1.33c7a6b70bf1cp-3");
      ("0x1.15b573eab367ap+0", "0x1.3410ec81573b2p-2");
    ]
    (List.map
       (fun (r : Sorting_exp.row) -> (hex r.max_bucket_ratio, hex r.measured_gap))
       rows);
  let ablation = Experiments.Ablations.splitters ~n:20_000 () in
  Alcotest.(check (list string))
    "splitter ablation sample_ratio"
    [ "0x1.34bc6a7ef9db2p+0"; "0x1.1f8a0902de00dp+0" ]
    (List.map (fun (r : Experiments.Ablations.splitter_row) -> hex r.sample_ratio) ablation)

let test_e2_hetero_improves () =
  let rows = Sorting_exp.run_hetero ~sizes:[ 50_000 ] ~processor_counts:[ 8 ] ~trials:2 () in
  List.iter
    (fun (r : Sorting_exp.hetero_row) ->
      checkb "speed-aware beats equal buckets" true
        (r.Sorting_exp.imbalance < r.Sorting_exp.naive_imbalance))
    rows

let test_e3_bimodal_bound () =
  let rows = Ratio_exp.run_bimodal ~p:20 ~factors:[ 4.; 25.; 100. ] () in
  List.iter
    (fun (r : Ratio_exp.bimodal_row) ->
      (* The paper's closed form bounds Commhom/LB (it takes
         Commhet ≈ LB); allow 3% for block-count rounding. *)
      checkb "hom/LB >= sqrt(k) - 1" true
        (r.Ratio_exp.hom_over_lb >= r.Ratio_exp.sqrt_bound -. 1e-9);
      checkb "hom/LB reaches (1+k)/(1+sqrt k)" true
        (r.Ratio_exp.hom_over_lb >= 0.97 *. r.Ratio_exp.bound);
      checkb "measured rho tracks the bound" true
        (r.Ratio_exp.measured_rho > 0.8 *. r.Ratio_exp.bound))
    rows

let test_e3_general_bound () =
  let rows = Ratio_exp.run_general ~processor_counts:[ 40 ] ~trials:5 () in
  List.iter
    (fun r ->
      checkb "measured above (4/7) bound" true
        (r.Ratio_exp.measured_rho >= r.Ratio_exp.general_bound *. 0.95))
    rows

let test_ablation_affinity_helps () =
  let rows = Mapreduce_exp.run ~n:128 ~chunk:16 ~processor_counts:[ 4 ] ~trials:1 () in
  List.iter
    (fun r ->
      checkb "affinity never worse" true (r.Mapreduce_exp.affinity_comm <= r.Mapreduce_exp.fifo_comm +. 1e-9);
      checkb "zones cheapest" true (r.Mapreduce_exp.zone_comm <= r.Mapreduce_exp.affinity_comm +. 1e-9))
    rows

let suites =
  [
    ( "experiments",
      [
        Alcotest.test_case "fig4 homogeneous shape" `Quick test_fig4_homogeneous_shape;
        Alcotest.test_case "fig4 heterogeneous shape" `Slow test_fig4_heterogeneous_shape;
        Alcotest.test_case "fig4 deterministic" `Quick test_fig4_deterministic;
        Alcotest.test_case "E1 exactness" `Quick test_e1_exactness;
        Alcotest.test_case "E1 vanishing" `Quick test_e1_vanishing_with_p;
        Alcotest.test_case "E2 gap" `Quick test_e2_gap_matches;
        Alcotest.test_case "E2 pinned values" `Quick test_e2_pinned_values;
        Alcotest.test_case "E2 hetero splitters" `Quick test_e2_hetero_improves;
        Alcotest.test_case "E3 bimodal" `Quick test_e3_bimodal_bound;
        Alcotest.test_case "E3 general" `Quick test_e3_general_bound;
        Alcotest.test_case "ablation affinity" `Quick test_ablation_affinity_helps;
      ] );
  ]
