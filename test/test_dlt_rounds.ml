(* Multi-installment dispatch and makespan bounds. *)

module Star = Platform.Star
module Cost_model = Dlt.Cost_model
module Multi_round = Dlt.Multi_round
module Linear = Dlt.Linear
module Bounds = Dlt.Bounds
module Schedule = Dlt.Schedule

let checkb = Alcotest.(check bool)
let checkf msg ?(eps = 1e-9) expected actual =
  Alcotest.(check (float eps)) msg expected actual

let star = Star.of_speeds ~bandwidth:1. [ 1.; 2.; 4. ]
let allocation = Linear.parallel_allocation star ~total:60.

let test_single_round_matches_schedule () =
  (* One round under the parallel model reproduces the static schedule's
     makespan. *)
  let simulated =
    Multi_round.makespan Schedule.Parallel star Cost_model.Linear ~allocation ~rounds:1
  in
  checkf "single-round == closed form" ~eps:1e-6
    (Linear.parallel_makespan star ~total:60.)
    simulated

let test_pipelining_helps_one_port () =
  (* With zero latency, cutting each share into rounds overlaps
     communication and computation, so the makespan cannot increase. *)
  let one_port = Linear.one_port_allocation star ~total:60. in
  let span rounds =
    Multi_round.makespan Schedule.One_port star Cost_model.Linear ~allocation:one_port
      ~rounds
  in
  checkb "2 rounds <= 1 round" true (span 2 <= span 1 +. 1e-9);
  checkb "8 rounds <= 2 rounds" true (span 8 <= span 2 +. 1e-9)

let test_latency_penalizes_many_rounds () =
  let lazy_star = Star.of_speeds ~latency:5. [ 1.; 1. ] in
  let alloc = [| 10.; 10. |] in
  let span rounds =
    Multi_round.makespan Schedule.One_port lazy_star Cost_model.Linear ~allocation:alloc
      ~rounds
  in
  checkb "latency makes 64 rounds worse than 1" true (span 64 > span 1)

let test_best_rounds_bracket () =
  let lazy_star = Star.of_speeds ~latency:0.5 [ 1.; 1.; 1. ] in
  let alloc = [| 20.; 20.; 20. |] in
  let rounds, span =
    Multi_round.best_rounds ~max_rounds:32 Schedule.One_port lazy_star Cost_model.Linear
      ~allocation:alloc
  in
  checkb "best rounds in range" true (rounds >= 1 && rounds <= 32);
  let span1 =
    Multi_round.makespan Schedule.One_port lazy_star Cost_model.Linear ~allocation:alloc
      ~rounds:1
  in
  checkb "best no worse than single round" true (span <= span1 +. 1e-9)

let test_chunk_count () =
  let result =
    Multi_round.run Schedule.One_port star Cost_model.Linear ~allocation ~rounds:3
  in
  Alcotest.(check int) "p·rounds chunks" (3 * 3) (List.length result.Multi_round.chunks)

let test_chunks_conserve_data () =
  let result =
    Multi_round.run Schedule.Parallel star Cost_model.Linear ~allocation ~rounds:4
  in
  let shipped =
    List.fold_left (fun acc c -> acc +. c.Multi_round.data) 0. result.Multi_round.chunks
  in
  checkf "data conserved" ~eps:1e-6 60. shipped

let test_nonlinear_chunking_reduces_work () =
  (* §2's "intrinsic linearity": processing W data in independent unit
     chunks executes Σ chunk^α << W^α work. *)
  let hom = Star.of_speeds [ 1. ] in
  let cost = Cost_model.Power 2. in
  let run rounds = Multi_round.run Schedule.Parallel hom cost ~allocation:[| 16. |] ~rounds in
  (* 1 round: comm 16 then compute 16² -> makespan 272. *)
  checkf "single chunk cost" ~eps:1e-9 272. (run 1).Multi_round.makespan;
  (* 16 unit chunks: compute pipelines behind the 1-unit transfers:
     first chunk arrives at t=1, each costs 1 -> makespan 17. *)
  checkf "unit chunks pipeline" ~eps:1e-9 17. (run 16).Multi_round.makespan;
  let executed rounds =
    List.fold_left
      (fun acc c -> acc +. Cost_model.work cost c.Multi_round.data)
      0. (run rounds).Multi_round.chunks
  in
  checkf "whole-load work is quadratic" ~eps:1e-9 256. (executed 1);
  checkf "unit-chunk work is linear" ~eps:1e-9 16. (executed 16)

let test_invalid_inputs () =
  Alcotest.check_raises "rounds must be positive"
    (Invalid_argument "Multi_round.run: rounds must be > 0") (fun () ->
      ignore (Multi_round.run Schedule.Parallel star Cost_model.Linear ~allocation ~rounds:0));
  Alcotest.check_raises "allocation size"
    (Invalid_argument "Multi_round.run: allocation size mismatch") (fun () ->
      ignore
        (Multi_round.run Schedule.Parallel star Cost_model.Linear ~allocation:[| 1. |]
           ~rounds:1))

let test_ideal_makespan () =
  checkf "W / Σs" (100. /. 7.) (Bounds.ideal_makespan star Cost_model.Linear ~total:100.)

let test_divisible_ideal_linear_matches () =
  checkf "divisible ideal == ideal for linear" ~eps:1e-6
    (Bounds.ideal_makespan star Cost_model.Linear ~total:100.)
    (Bounds.divisible_ideal_makespan star Cost_model.Linear ~total:100.)

let test_divisible_ideal_below_schedule () =
  let cost = Cost_model.Power 2. in
  let _, makespan =
    Dlt.Nonlinear.equal_finish_allocation Schedule.Parallel star cost ~total:50.
  in
  checkb "compute-only bound below full makespan" true
    (Bounds.divisible_ideal_makespan star cost ~total:50. <= makespan +. 1e-9)

let qcheck_multi_round_monotone_data =
  QCheck.Test.make ~name:"multi-round conserves data over random allocations" ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 6) (float_range 0.5 10.))
        (int_range 1 10))
    (fun (speeds, rounds) ->
      let star = Star.of_speeds speeds in
      let allocation = Linear.parallel_allocation star ~total:30. in
      let result =
        Multi_round.run Schedule.One_port star Cost_model.Linear ~allocation ~rounds
      in
      let shipped =
        List.fold_left (fun acc c -> acc +. c.Multi_round.data) 0. result.Multi_round.chunks
      in
      Float.abs (shipped -. 30.) < 1e-6)

let suites =
  [
    ( "multi-round",
      [
        Alcotest.test_case "single round matches closed form" `Quick
          test_single_round_matches_schedule;
        Alcotest.test_case "pipelining helps" `Quick test_pipelining_helps_one_port;
        Alcotest.test_case "latency penalizes rounds" `Quick test_latency_penalizes_many_rounds;
        Alcotest.test_case "best rounds" `Quick test_best_rounds_bracket;
        Alcotest.test_case "chunk count" `Quick test_chunk_count;
        Alcotest.test_case "data conserved" `Quick test_chunks_conserve_data;
        Alcotest.test_case "nonlinear chunking linearizes" `Quick
          test_nonlinear_chunking_reduces_work;
        Alcotest.test_case "invalid inputs" `Quick test_invalid_inputs;
        QCheck_alcotest.to_alcotest qcheck_multi_round_monotone_data;
      ] );
    ( "bounds",
      [
        Alcotest.test_case "ideal makespan" `Quick test_ideal_makespan;
        Alcotest.test_case "divisible ideal linear" `Quick test_divisible_ideal_linear_matches;
        Alcotest.test_case "divisible ideal below schedule" `Quick
          test_divisible_ideal_below_schedule;
      ] );
  ]
