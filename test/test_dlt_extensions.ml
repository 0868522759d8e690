(* Affine one-port DLT (latencies + participation) and dispatch-order
   analysis — the classical extensions the paper's model deliberately
   strips away.  The affine model is the linear case of the
   equal-finish engine, checked against the frozen [Affine_oracle]. *)

module Star = Platform.Star
module Processor = Platform.Processor
module Ordering = Dlt.Ordering
module Linear = Dlt.Linear
module Nonlinear = Dlt.Nonlinear
module Schedule = Dlt.Schedule
module Cost_model = Dlt.Cost_model

let checkb = Alcotest.(check bool)
let checkf msg ?(eps = 1e-9) expected actual =
  Alcotest.(check (float eps)) msg expected actual

let star_no_latency = Star.of_speeds ~bandwidth:2. [ 1.; 2.; 4. ]

let lazy_star latencies speeds =
  Star.create
    (List.map2
       (fun speed latency -> Processor.make ~id:0 ~speed ~latency ())
       speeds latencies)

(* The engine under one port; with the default linear cost, the affine
   model. *)
let solve ?order ?(cost = Cost_model.Linear) star ~total =
  Nonlinear.equal_finish_allocation ?order Schedule.One_port star cost ~total

(* The workers with a positive share, in serving order. *)
let participants star allocation =
  List.filter (fun i -> allocation.(i) > 0.) (Array.to_list (Linear.one_port_order star))

let test_affine_matches_linear_without_latency () =
  (* Zero latency: the affine solver must reproduce the latency-free
     closed form. *)
  let allocation, makespan = solve star_no_latency ~total:100. in
  let reference = Linear.one_port_allocation star_no_latency ~total:100. in
  Array.iteri (fun i n -> checkf "same allocation" ~eps:1e-6 reference.(i) n) allocation;
  checkf "same makespan" ~eps:1e-6
    (Linear.one_port_makespan star_no_latency ~total:100.)
    makespan

let test_affine_sums_to_total () =
  let star = lazy_star [ 0.5; 1.; 2. ] [ 1.; 2.; 4. ] in
  let allocation, _ = solve star ~total:50. in
  checkf "conserved" ~eps:1e-6 50. (Numerics.Kahan.sum allocation)

let test_affine_equal_finish () =
  let star = lazy_star [ 0.5; 1.; 2. ] [ 1.; 2.; 4. ] in
  let allocation, makespan = solve star ~total:50. in
  (* Recompute each participant's finish from scratch. *)
  let workers = Star.workers star in
  let port = ref 0. in
  List.iter
    (fun i ->
      let proc = workers.(i) in
      let n = allocation.(i) in
      let arrival = !port +. Processor.transfer_time proc ~data:n in
      port := arrival;
      let finish = arrival +. (Processor.w proc *. n) in
      checkf "participant finishes at makespan" ~eps:1e-6 makespan finish)
    (participants star allocation)

let test_affine_drops_hopeless_worker () =
  (* A worker whose latency alone exceeds the whole job's ideal
     makespan must be dropped. *)
  let star = lazy_star [ 0.; 0.; 1000. ] [ 1.; 1.; 1. ] in
  let allocation, _ = solve star ~total:10. in
  let chosen = participants star allocation in
  checkb "dropped" true (List.length chosen = 2);
  (* The dropped worker is the high-latency one (platform order may
     place it anywhere since speeds tie). *)
  let workers = Star.workers star in
  List.iter
    (fun i -> checkf "participants have low latency" 0. workers.(i).Processor.latency)
    chosen

let test_affine_keeps_everyone_when_cheap () =
  let star = lazy_star [ 0.01; 0.01; 0.01 ] [ 1.; 2.; 4. ] in
  let allocation, _ = solve star ~total:100. in
  Alcotest.(check int) "all participate" 3 (List.length (participants star allocation))

let test_affine_makespan_of_allocation_agrees () =
  let star = lazy_star [ 0.2; 0.4; 0.1 ] [ 1.; 3.; 2. ] in
  let allocation, makespan = solve star ~total:20. in
  checkf "simulator agrees with solver" ~eps:1e-6 makespan
    (Schedule.of_allocation ~order:(Linear.one_port_order star) Schedule.One_port star
       Cost_model.Linear ~allocation)
      .Schedule.makespan

let test_affine_validates_order () =
  checkb "non-permutation rejected" true
    (try
       ignore (solve ~order:[| 0; 0; 2 |] star_no_latency ~total:10.);
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
  let _, makespan = solve star ~total:500. in
  checkf "closed form agrees" ~eps:1e-6 (Linear.one_port_makespan star ~total:500.) makespan;
  checkb "beats a single worker" true (makespan < 500. *. ((1. /. 8.) +. (1. /. 4.)))

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
    [ Ordering.identity_order 3; [| 2; 1; 0 |]; [| 1; 0; 2 |] ]

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
      let allocation, _ = solve star ~total:100. in
      participants star allocation <> []
      && Array.for_all (fun n -> n >= 0.) allocation
      && Float.abs (Numerics.Kahan.sum allocation -. 100.) < 1e-6)

(* --- Participant selection laws -------------------------------------- *)

type instance = { star : Star.t; cost : Cost_model.t; total : float }

let print_instance i =
  Printf.sprintf "%s total=%h workers=[%s]"
    (match i.cost with
     | Cost_model.Linear -> "linear"
     | Cost_model.Power a -> Printf.sprintf "power(%h)" a
     | Cost_model.N_log_n -> "nlogn")
    i.total
    (String.concat "; "
       (Array.to_list
          (Array.map
             (fun (p : Processor.t) ->
               Printf.sprintf "s=%h bw=%h lat=%h" p.speed p.bandwidth p.latency)
             (Star.workers i.star))))

(* One-port platforms: p in [1, 32], speeds and bandwidths in
   [0.1, 10.1), latencies in [0, 2), totals in [1, 101). *)
let instance_gen cost =
  QCheck.Gen.(
    let* p = int_range 1 32 in
    let* workers =
      list_repeat p (triple (float_range 0.1 10.1) (float_range 0.1 10.1) (float_range 0. 2.))
    in
    let* cost = cost in
    let+ total = float_range 1. 101. in
    let star =
      Star.create
        (List.mapi
           (fun i (speed, bandwidth, latency) ->
             Processor.make ~id:(i + 1) ~speed ~bandwidth ~latency ())
           workers)
    in
    { star; cost; total })

let linear_instance = QCheck.make ~print:print_instance (instance_gen (QCheck.Gen.return Cost_model.Linear))

let any_instance =
  QCheck.make ~print:print_instance
    (instance_gen
       QCheck.Gen.(
         oneof
           [
             return Cost_model.Linear;
             map (fun a -> Cost_model.Power a) (float_range 1.05 4.);
             return Cost_model.N_log_n;
           ]))

let qcheck_matches_affine_oracle =
  (* The affine policy is one of the engine's two starts, so it is never
     worse than the oracle; when it is not better either, it is the
     oracle's answer. *)
  QCheck.Test.make ~name:"affine model: the oracle's answer, or a better one" ~count:300
    linear_instance (fun { star; total; _ } ->
      let allocation, makespan = solve star ~total in
      let oracle = Affine_oracle.solve star ~total in
      let reference = oracle.Affine_oracle.makespan in
      makespan < reference *. (1. -. 1e-12)
      || participants star allocation = oracle.Affine_oracle.participants
         && Float.abs (makespan -. reference) <= 1e-12 *. reference)

let qcheck_no_worse_than_all_workers =
  (* The oracle keeps every worker that can help, charging a latency
     only to the ones it gives a share, and returns a root of its own. *)
  QCheck.Test.make ~name:"selection: no worse than the all-workers oracle" ~count:300
    any_instance (fun { star; cost; total } ->
      let _, makespan = solve ~cost star ~total in
      let _, all_workers =
        Nonlinear_oracle.equal_finish_allocation Schedule.One_port star cost ~total
      in
      makespan <= all_workers *. (1. +. 1e-12))

(* The platform restricted to [kept] (platform indices); its default
   serving order is the original one, minus the rest. *)
let restrict star kept = Star.create (List.map (Star.worker star) kept)

let qcheck_no_single_removal_improves =
  QCheck.Test.make ~name:"selection: no single participant's removal lowers the makespan"
    ~count:200 any_instance (fun { star; cost; total } ->
      let allocation, makespan = solve ~cost star ~total in
      let chosen = participants star allocation in
      List.length chosen <= 1
      || List.for_all
           (fun r ->
             let _, without = solve ~cost (restrict star (List.filter (( <> ) r) chosen)) ~total in
             without >= makespan *. (1. -. 1e-12))
           chosen)

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
        QCheck_alcotest.to_alcotest qcheck_matches_affine_oracle;
        QCheck_alcotest.to_alcotest qcheck_no_worse_than_all_workers;
        QCheck_alcotest.to_alcotest qcheck_no_single_removal_improves;
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
        Alcotest.test_case "exhaustive size guard" `Quick test_exhaustive_size_guard;
      ] );
  ]
