(* The PERI-SUM / PERI-MAX column-based partitioner ([41]) and its
   approximation guarantee. *)

module Column_partition = Partition.Column_partition
module Layout = Partition.Layout
module Lower_bound = Partition.Lower_bound
module Strategies = Partition.Strategies

let checkb = Alcotest.(check bool)
let checkf msg ?(eps = 1e-9) expected actual =
  Alcotest.(check (float eps)) msg expected actual

let equal_areas p = Array.make p (1. /. float_of_int p)

let test_single_area () =
  let assignment = Column_partition.peri_sum ~areas:[| 1. |] in
  checkf "one full square costs 2" 2. assignment.Column_partition.cost;
  Alcotest.(check int) "one column" 1 (Array.length assignment.Column_partition.columns)

let test_perfect_square_grid () =
  (* 4 equal areas: 2 columns of 2 achieve the lower bound of 4. *)
  let assignment = Column_partition.peri_sum ~areas:(equal_areas 4) in
  checkf "optimal cost" 4. assignment.Column_partition.cost;
  Alcotest.(check int) "two columns" 2 (Array.length assignment.Column_partition.columns)

let test_nine_grid () =
  let assignment = Column_partition.peri_sum ~areas:(equal_areas 9) in
  checkf "3x3 grid cost" 6. assignment.Column_partition.cost

let test_cost_matches_layout () =
  let areas = [| 0.4; 0.3; 0.2; 0.1 |] in
  let assignment = Column_partition.peri_sum ~areas in
  let layout = Column_partition.to_layout ~areas assignment in
  checkf "DP cost == realized half-perimeter sum" ~eps:1e-9
    assignment.Column_partition.cost
    (Layout.sum_half_perimeters layout)

let test_layout_valid_and_balanced () =
  let areas = [| 0.4; 0.3; 0.2; 0.1 |] in
  let layout = Column_partition.peri_sum_layout ~areas in
  match Layout.validate ~expected_areas:areas layout with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_columns_cover_indices () =
  let areas = [| 0.5; 0.2; 0.15; 0.1; 0.05 |] in
  let assignment = Column_partition.peri_sum ~areas in
  let seen = Array.make 5 false in
  Array.iter
    (fun column -> Array.iter (fun i -> seen.(i) <- true) column)
    assignment.Column_partition.columns;
  checkb "every index placed once" true (Array.for_all Fun.id seen)

let test_bad_areas_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Column_partition: empty areas")
    (fun () -> ignore (Column_partition.peri_sum ~areas:[||]));
  checkb "not normalized" true
    (try
       ignore (Column_partition.peri_sum ~areas:[| 0.4; 0.4 |]);
       false
     with Invalid_argument _ -> true);
  checkb "non-positive" true
    (try
       ignore (Column_partition.peri_sum ~areas:[| 1.2; -0.2 |]);
       false
     with Invalid_argument _ -> true)

let test_peri_max_equal_areas () =
  (* 4 equal areas: every zone is a 1/2 x 1/2 square, max half-perim 1. *)
  let assignment = Column_partition.peri_max ~areas:(equal_areas 4) in
  checkf "peri-max optimal" 1. assignment.Column_partition.cost

let test_peri_max_ge_lower_bound () =
  let areas = [| 0.5; 0.3; 0.2 |] in
  let assignment = Column_partition.peri_max ~areas in
  checkb "above 2·sqrt(amax)" true
    (assignment.Column_partition.cost >= Lower_bound.peri_max ~areas -. 1e-9)

let random_areas rng p =
  let raw = Array.init p (fun _ -> Numerics.Rng.uniform rng 0.01 1.) in
  let total = Numerics.Kahan.sum raw in
  Array.map (fun a -> a /. total) raw

let test_guarantee_on_random_instances () =
  (* Ĉ <= 1 + (5/4)·LB (hence <= 7/4·LB): the [41] guarantee our DP
     inherits by covering the heuristic's search space. *)
  let rng = Numerics.Rng.create ~seed:77 () in
  for _ = 1 to 200 do
    let p = 1 + Numerics.Rng.int rng 40 in
    let areas = random_areas rng p in
    let cost = (Column_partition.peri_sum ~areas).Column_partition.cost in
    let lb = Lower_bound.peri_sum ~areas in
    checkb "within guarantee" true (cost <= 1. +. (1.25 *. lb) +. 1e-9);
    checkb "not below LB" true (cost >= lb -. 1e-9)
  done

let qcheck_layout_always_valid =
  QCheck.Test.make ~name:"peri-sum layout tiles the unit square" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 30) (float_range 0.01 100.))
    (fun raw ->
      let total = List.fold_left ( +. ) 0. raw in
      let areas = Array.of_list (List.map (fun a -> a /. total) raw) in
      let layout = Column_partition.peri_sum_layout ~areas in
      match Layout.validate ~tol:1e-7 ~expected_areas:areas layout with
      | Ok () -> true
      | Error _ -> false)

let qcheck_peri_max_le_peri_sum_max =
  (* The PERI-MAX optimum never exceeds the max half-perimeter of the
     PERI-SUM solution. *)
  QCheck.Test.make ~name:"peri-max cost <= max zone of peri-sum layout" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 20) (float_range 0.01 10.))
    (fun raw ->
      let total = List.fold_left ( +. ) 0. raw in
      let areas = Array.of_list (List.map (fun a -> a /. total) raw) in
      let max_cost = (Column_partition.peri_max ~areas).Column_partition.cost in
      let sum_layout = Column_partition.peri_sum_layout ~areas in
      let max_zone =
        Array.fold_left
          (fun acc r -> Float.max acc (Partition.Rect.half_perimeter r))
          0. sum_layout.Layout.rects
      in
      max_cost <= max_zone +. 1e-9)

let test_strategies_homogeneous () =
  let star = Platform.Star.of_speeds (List.init 16 (fun _ -> 1.)) in
  let r = Strategies.evaluate star in
  checkf "hom achieves LB" ~eps:1e-9 1. r.Strategies.hom;
  checkf "hom/k stays at LB" ~eps:1e-9 1. r.Strategies.hom_over_k;
  Alcotest.(check int) "k stays 1" 1 r.Strategies.k;
  checkb "het within 2% of LB" true (r.Strategies.het <= 1.02)

let test_strategies_heterogeneous () =
  let rng = Numerics.Rng.create ~seed:2 () in
  let star = Platform.Profiles.generate rng ~p:50 Platform.Profiles.paper_uniform in
  let r = Strategies.evaluate star in
  checkb "het close to LB" true (r.Strategies.het <= 1.05);
  checkb "hom well above het" true (r.Strategies.hom > 1.5 *. r.Strategies.het);
  checkb "hom/k above hom" true (r.Strategies.hom_over_k >= r.Strategies.hom -. 1e-9);
  checkb "balance met" true (r.Strategies.hom_over_k_imbalance <= 0.01)

let suites =
  [
    ( "column partition (PERI-SUM)",
      [
        Alcotest.test_case "single area" `Quick test_single_area;
        Alcotest.test_case "2x2 grid optimal" `Quick test_perfect_square_grid;
        Alcotest.test_case "3x3 grid optimal" `Quick test_nine_grid;
        Alcotest.test_case "cost matches layout" `Quick test_cost_matches_layout;
        Alcotest.test_case "layout valid + balanced" `Quick test_layout_valid_and_balanced;
        Alcotest.test_case "indices covered" `Quick test_columns_cover_indices;
        Alcotest.test_case "bad areas rejected" `Quick test_bad_areas_rejected;
        Alcotest.test_case "7/4 guarantee (random)" `Slow test_guarantee_on_random_instances;
        QCheck_alcotest.to_alcotest qcheck_layout_always_valid;
      ] );
    ( "column partition (PERI-MAX)",
      [
        Alcotest.test_case "equal areas" `Quick test_peri_max_equal_areas;
        Alcotest.test_case "above lower bound" `Quick test_peri_max_ge_lower_bound;
        QCheck_alcotest.to_alcotest qcheck_peri_max_le_peri_sum_max;
      ] );
    ( "strategies",
      [
        Alcotest.test_case "homogeneous platform" `Quick test_strategies_homogeneous;
        Alcotest.test_case "heterogeneous platform" `Quick test_strategies_heterogeneous;
      ] );
  ]
