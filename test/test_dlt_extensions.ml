(* Affine one-port DLT (latencies + participation) and dispatch-order
   analysis — the classical extensions the paper's model deliberately
   strips away. *)

module Star = Platform.Star
module Processor = Platform.Processor
module Affine = Dlt.Affine
module Ordering = Dlt.Ordering
module Linear = Dlt.Linear

let checkb = Alcotest.(check bool)
let checkf msg ?(eps = 1e-9) expected actual =
  Alcotest.(check (float eps)) msg expected actual

let star_no_latency = Star.of_speeds ~bandwidth:2. [ 1.; 2.; 4. ]

let lazy_star latencies speeds =
  Star.create
    (List.map2
       (fun speed latency -> Processor.make ~id:0 ~speed ~latency ())
       speeds latencies)

let test_affine_matches_linear_without_latency () =
  (* Zero latency: the affine solver must reproduce the latency-free
     closed form. *)
  let sol = Affine.solve star_no_latency ~total:100. in
  let reference = Linear.one_port_allocation star_no_latency ~total:100. in
  Array.iteri
    (fun i n -> checkf "same allocation" ~eps:1e-6 reference.(i) n)
    sol.Affine.allocation;
  checkf "same makespan" ~eps:1e-6
    (Linear.one_port_makespan star_no_latency ~total:100.)
    sol.Affine.makespan

let test_affine_sums_to_total () =
  let star = lazy_star [ 0.5; 1.; 2. ] [ 1.; 2.; 4. ] in
  let sol = Affine.solve star ~total:50. in
  checkf "conserved" ~eps:1e-6 50. (Numerics.Kahan.sum sol.Affine.allocation)

let test_affine_equal_finish () =
  let star = lazy_star [ 0.5; 1.; 2. ] [ 1.; 2.; 4. ] in
  let sol = Affine.solve star ~total:50. in
  (* Recompute each participant's finish from scratch. *)
  let workers = Star.workers star in
  let port = ref 0. in
  List.iter
    (fun i ->
      let proc = workers.(i) in
      let n = sol.Affine.allocation.(i) in
      let arrival = !port +. Processor.transfer_time proc ~data:n in
      port := arrival;
      let finish = arrival +. (Processor.w proc *. n) in
      checkf "participant finishes at makespan" ~eps:1e-6 sol.Affine.makespan finish)
    sol.Affine.participants

let test_affine_drops_hopeless_worker () =
  (* A worker whose latency alone exceeds the whole job's ideal
     makespan must be dropped. *)
  let star = lazy_star [ 0.; 0.; 1000. ] [ 1.; 1.; 1. ] in
  let sol = Affine.solve star ~total:10. in
  checkb "dropped" true (List.length sol.Affine.participants = 2);
  checkb "predicate agrees" true (Affine.drops_slow_high_latency_workers star ~total:10.);
  (* The dropped worker is the high-latency one (platform order may
     place it anywhere since speeds tie). *)
  let workers = Star.workers star in
  List.iter
    (fun i -> checkf "participants have low latency" 0. workers.(i).Processor.latency)
    sol.Affine.participants

let test_affine_keeps_everyone_when_cheap () =
  let star = lazy_star [ 0.01; 0.01; 0.01 ] [ 1.; 2.; 4. ] in
  let sol = Affine.solve star ~total:100. in
  Alcotest.(check int) "all participate" 3 (List.length sol.Affine.participants)

let test_affine_makespan_of_allocation_agrees () =
  let star = lazy_star [ 0.2; 0.4; 0.1 ] [ 1.; 3.; 2. ] in
  let sol = Affine.solve star ~total:20. in
  checkf "simulator agrees with solver" ~eps:1e-6 sol.Affine.makespan
    (Affine.makespan_of_allocation star ~allocation:sol.Affine.allocation)

let test_affine_validates_order () =
  checkb "non-permutation rejected" true
    (try
       ignore (Affine.solve ~order:[| 0; 0; 2 |] star_no_latency ~total:10.);
       false
     with Invalid_argument _ -> true)

let test_order_irrelevant_without_latency () =
  (* With uniform link bandwidth and no latency, the activation order
     does not change the optimal makespan. *)
  checkb "spread ~ 0" true (Ordering.order_spread star_no_latency ~total:100. < 1e-9)

let test_bandwidth_order_optimal () =
  (* Heterogeneous links, no latency: decreasing bandwidth is the
     classical optimal activation order; exhaustive search confirms. *)
  let star =
    Star.create
      [
        Processor.make ~id:1 ~speed:1.5 ~bandwidth:1.5 ();
        Processor.make ~id:2 ~speed:3. ~bandwidth:1. ();
        Processor.make ~id:3 ~speed:4. ~bandwidth:8. ();
      ]
  in
  let best = Ordering.best_order star ~total:500. in
  let bandwidth_order = Dlt.Linear.one_port_order star in
  checkf "bandwidth-descending is optimal" ~eps:1e-6 best.Ordering.makespan
    (Ordering.makespan star ~order:bandwidth_order ~total:500.);
  (* And it strictly beats the worst order on this platform. *)
  let worst = Ordering.worst_order star ~total:500. in
  checkb "order matters without latency here" true
    (worst.Ordering.makespan > 1.2 *. best.Ordering.makespan)

let test_one_port_closed_form_uses_bandwidth_order () =
  let star =
    Star.create
      [
        Processor.make ~id:1 ~speed:1.5 ~bandwidth:1.5 ();
        Processor.make ~id:2 ~speed:3. ~bandwidth:1. ();
        Processor.make ~id:3 ~speed:4. ~bandwidth:8. ();
      ]
  in
  (* The affine solver with no latency must agree with the linear
     closed form, both using the bandwidth order. *)
  let sol = Affine.solve star ~total:500. in
  checkf "closed form agrees" ~eps:1e-6
    (Linear.one_port_makespan star ~total:500.)
    sol.Affine.makespan;
  checkb "beats a single worker" true
    (sol.Affine.makespan < 500. *. ((1. /. 8.) +. (1. /. 4.)))

let test_order_matters_with_latency () =
  let star = lazy_star [ 5.; 0.1; 0.1 ] [ 4.; 1.; 1. ] in
  checkb "spread > 0" true (Ordering.order_spread star ~total:30. > 1e-6)

let test_best_order_beats_heuristics () =
  let star = lazy_star [ 2.; 0.1; 1. ] [ 1.; 3.; 2. ] in
  let total = 30. in
  let best = Ordering.best_order star ~total in
  List.iter
    (fun order ->
      checkb "best <= heuristic" true
        (best.Ordering.makespan <= Ordering.makespan star ~order ~total +. 1e-9))
    [
      Ordering.identity_order 3;
      Ordering.by_bandwidth star;
      Ordering.by_latency star;
      Ordering.by_speed star;
    ]

let test_heuristic_orders_are_permutations () =
  let star = lazy_star [ 1.; 2.; 0.5; 0.1 ] [ 1.; 2.; 3.; 4. ] in
  List.iter
    (fun order ->
      let sorted = Array.copy order in
      Array.sort compare sorted;
      Alcotest.(check (array int)) "permutation" [| 0; 1; 2; 3 |] sorted)
    [ Ordering.by_bandwidth star; Ordering.by_latency star; Ordering.by_speed star ]

let test_exhaustive_size_guard () =
  let star = Star.of_speeds (List.init 10 (fun i -> float_of_int (i + 1))) in
  checkb "p > 9 rejected" true
    (try
       ignore (Ordering.best_order star ~total:10.);
       false
     with Invalid_argument _ -> true)

let qcheck_affine_participants_positive =
  QCheck.Test.make ~name:"affine solver: participants have positive shares" ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 8) (float_range 0.3 8.))
        (list_of_size Gen.(int_range 1 8) (float_range 0. 3.)))
    (fun (speeds, latencies) ->
      QCheck.assume (speeds <> [] && List.length speeds = List.length latencies);
      let procs =
        List.map2 (fun s l -> Processor.make ~id:0 ~speed:s ~latency:l ()) speeds latencies
      in
      let star = Star.create procs in
      match Affine.solve star ~total:100. with
      | sol ->
          List.for_all (fun i -> sol.Affine.allocation.(i) > 0.) sol.Affine.participants
          && Float.abs (Numerics.Kahan.sum sol.Affine.allocation -. 100.) < 1e-6
      | exception Invalid_argument _ -> true)

let suites =
  [
    ( "affine one-port DLT",
      [
        Alcotest.test_case "matches linear without latency" `Quick
          test_affine_matches_linear_without_latency;
        Alcotest.test_case "sums to total" `Quick test_affine_sums_to_total;
        Alcotest.test_case "equal finish" `Quick test_affine_equal_finish;
        Alcotest.test_case "drops hopeless worker" `Quick test_affine_drops_hopeless_worker;
        Alcotest.test_case "keeps everyone when cheap" `Quick
          test_affine_keeps_everyone_when_cheap;
        Alcotest.test_case "simulator agrees" `Quick test_affine_makespan_of_allocation_agrees;
        Alcotest.test_case "order validated" `Quick test_affine_validates_order;
        QCheck_alcotest.to_alcotest qcheck_affine_participants_positive;
      ] );
    ( "dispatch ordering",
      [
        Alcotest.test_case "irrelevant without latency" `Quick
          test_order_irrelevant_without_latency;
        Alcotest.test_case "bandwidth order optimal" `Quick test_bandwidth_order_optimal;
        Alcotest.test_case "closed form uses bandwidth order" `Quick
          test_one_port_closed_form_uses_bandwidth_order;
        Alcotest.test_case "matters with latency" `Quick test_order_matters_with_latency;
        Alcotest.test_case "best beats heuristics" `Quick test_best_order_beats_heuristics;
        Alcotest.test_case "heuristics are permutations" `Quick
          test_heuristic_orders_are_permutations;
        Alcotest.test_case "exhaustive size guard" `Quick test_exhaustive_size_guard;
      ] );
  ]
