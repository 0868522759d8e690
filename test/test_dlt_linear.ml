(* Classical linear DLT: closed forms, equal finish times, schedule
   validation, cost models. *)

module Star = Platform.Star
module Processor = Platform.Processor
module Cost_model = Dlt.Cost_model
module Linear = Dlt.Linear
module Schedule = Dlt.Schedule

let checkb = Alcotest.(check bool)
let checkf msg ?(eps = 1e-9) expected actual =
  Alcotest.(check (float eps)) msg expected actual

let star3 = Star.of_speeds ~bandwidth:2. [ 1.; 2.; 4. ]

let test_cost_model_values () =
  checkf "linear" 5. (Cost_model.work Cost_model.Linear 5.);
  checkf "quadratic" 25. (Cost_model.work (Cost_model.Power 2.) 5.);
  checkf "power zero" 0. (Cost_model.work (Cost_model.Power 2.) 0.);
  checkf "nlogn at 8" 24. (Cost_model.work Cost_model.N_log_n 8.);
  checkf "nlogn below 1" 0. (Cost_model.work Cost_model.N_log_n 0.5)

let test_cost_model_of_alpha () =
  checkb "alpha 1 is linear" true (Cost_model.of_alpha 1. = Cost_model.Linear);
  checkb "alpha 2 is power" true (Cost_model.of_alpha 2. = Cost_model.Power 2.);
  Alcotest.check_raises "alpha < 1 rejected"
    (Invalid_argument "Cost_model.of_alpha: alpha must be >= 1") (fun () ->
      ignore (Cost_model.of_alpha 0.5))

let test_cost_model_derivative () =
  let cost = Cost_model.Power 2. in
  let h = 1e-6 in
  let numeric = (Cost_model.work cost (3. +. h) -. Cost_model.work cost 3.) /. h in
  checkf "quadratic derivative" ~eps:1e-4 numeric (Cost_model.work_derivative cost 3.)

let test_parallel_allocation_sums () =
  let allocation = Linear.parallel_allocation star3 ~total:100. in
  checkf "sums to total" 100. (Numerics.Kahan.sum allocation)

let test_parallel_equal_finish () =
  let allocation = Linear.parallel_allocation star3 ~total:100. in
  let workers = Star.workers star3 in
  let finish i =
    (Processor.c workers.(i) +. Processor.w workers.(i)) *. allocation.(i)
  in
  checkf "P1 = P2" (finish 0) (finish 1);
  checkf "P2 = P3" (finish 1) (finish 2);
  checkf "makespan matches" (finish 0) (Linear.parallel_makespan star3 ~total:100.)

let test_parallel_homogeneous_split () =
  let star = Star.of_speeds [ 1.; 1.; 1.; 1. ] in
  let allocation = Linear.parallel_allocation star ~total:100. in
  Array.iter (fun n -> checkf "equal share" 25. n) allocation

let test_one_port_sums () =
  let allocation = Linear.one_port_allocation star3 ~total:100. in
  checkf "sums to total" ~eps:1e-6 100. (Numerics.Kahan.sum allocation)

let test_one_port_equal_finish () =
  (* Under one-port, worker i finishes at Σ_{j<=i} c_j n_j + w_i n_i:
     all equal in the optimal solution. *)
  let allocation = Linear.one_port_allocation star3 ~total:100. in
  let workers = Star.workers star3 in
  let comm = ref 0. in
  let finishes =
    Array.mapi
      (fun i n ->
        comm := !comm +. (Processor.c workers.(i) *. n);
        !comm +. (Processor.w workers.(i) *. n))
      allocation
  in
  checkf "equal finish 0-1" ~eps:1e-6 finishes.(0) finishes.(1);
  checkf "equal finish 1-2" ~eps:1e-6 finishes.(1) finishes.(2);
  checkf "makespan matches" ~eps:1e-6 finishes.(0) (Linear.one_port_makespan star3 ~total:100.)

let test_one_port_slower_than_parallel () =
  checkb "one-port >= parallel makespan" true
    (Linear.one_port_makespan star3 ~total:100.
    >= Linear.parallel_makespan star3 ~total:100. -. 1e-9)

let test_schedule_validates () =
  List.iter
    (fun model ->
      let schedule = Linear.schedule model star3 ~total:50. in
      match Schedule.validate model Cost_model.Linear schedule with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg)
    [ Schedule.Parallel; Schedule.One_port ]

let test_schedule_total_data () =
  let schedule = Linear.schedule Schedule.Parallel star3 ~total:50. in
  checkf "data conserved" ~eps:1e-6 50.
    (Array.fold_left (fun acc e -> acc +. e.Schedule.data) 0. schedule.Schedule.entries)

let test_validate_catches_overlap () =
  (* A parallel-model schedule violates one-port when two transfers
     overlap. *)
  let schedule = Linear.schedule Schedule.Parallel star3 ~total:50. in
  match Schedule.validate Schedule.One_port Cost_model.Linear schedule with
  | Ok () -> Alcotest.fail "expected one-port violation"
  | Error msg -> checkb "mentions overlap" true (String.length msg > 0)

let test_validate_catches_tampering () =
  let schedule = Linear.schedule Schedule.Parallel star3 ~total:50. in
  let entries = Array.copy schedule.Schedule.entries in
  entries.(0) <- { entries.(0) with Schedule.compute_end = 0.1 };
  let tampered = { schedule with Schedule.entries = entries } in
  match Schedule.validate Schedule.Parallel Cost_model.Linear tampered with
  | Ok () -> Alcotest.fail "expected duration mismatch"
  | Error _ -> ()

let test_zero_total () =
  let allocation = Linear.parallel_allocation star3 ~total:0. in
  Array.iter (fun n -> checkf "zero everywhere" 0. n) allocation

let qcheck_parallel_optimality =
  (* Perturbing the optimal allocation can only increase the makespan. *)
  QCheck.Test.make ~name:"parallel closed form is optimal under perturbation" ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(int_range 2 8) (float_range 0.1 10.))
        (pair (int_range 0 7) (float_range 0.01 0.4)))
    (fun (speeds, (idx, delta)) ->
      let star = Star.of_speeds speeds in
      let p = Star.size star in
      let total = 100. in
      let allocation = Linear.parallel_allocation star ~total in
      let makespan allocation =
        let workers = Star.workers star in
        Array.fold_left Float.max 0.
          (Array.mapi
             (fun i n -> (Processor.c workers.(i) +. Processor.w workers.(i)) *. n)
             allocation)
      in
      let i = idx mod p and j = (idx + 1) mod p in
      let moved = Float.min (allocation.(i) *. delta) allocation.(i) in
      let perturbed = Array.copy allocation in
      perturbed.(i) <- perturbed.(i) -. moved;
      perturbed.(j) <- perturbed.(j) +. moved;
      makespan perturbed >= makespan allocation -. 1e-9)

let qcheck_one_port_allocation_valid =
  QCheck.Test.make ~name:"one-port allocation: positive, sums to total" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 20) (float_range 0.1 50.))
    (fun speeds ->
      let star = Star.of_speeds speeds in
      let allocation = Linear.one_port_allocation star ~total:42. in
      Array.for_all (fun n -> n > 0.) allocation
      && Float.abs (Numerics.Kahan.sum allocation -. 42.) < 1e-6)

let suites =
  [
    ( "cost model",
      [
        Alcotest.test_case "values" `Quick test_cost_model_values;
        Alcotest.test_case "of_alpha" `Quick test_cost_model_of_alpha;
        Alcotest.test_case "derivative" `Quick test_cost_model_derivative;
      ] );
    ( "linear DLT",
      [
        Alcotest.test_case "parallel sums" `Quick test_parallel_allocation_sums;
        Alcotest.test_case "parallel equal finish" `Quick test_parallel_equal_finish;
        Alcotest.test_case "homogeneous split" `Quick test_parallel_homogeneous_split;
        Alcotest.test_case "one-port sums" `Quick test_one_port_sums;
        Alcotest.test_case "one-port equal finish" `Quick test_one_port_equal_finish;
        Alcotest.test_case "one-port slower" `Quick test_one_port_slower_than_parallel;
        Alcotest.test_case "zero total" `Quick test_zero_total;
        QCheck_alcotest.to_alcotest qcheck_parallel_optimality;
        QCheck_alcotest.to_alcotest qcheck_one_port_allocation_valid;
      ] );
    ( "schedule",
      [
        Alcotest.test_case "validates" `Quick test_schedule_validates;
        Alcotest.test_case "total data" `Quick test_schedule_total_data;
        Alcotest.test_case "one-port overlap caught" `Quick test_validate_catches_overlap;
        Alcotest.test_case "tampering caught" `Quick test_validate_catches_tampering;
      ] );
  ]
