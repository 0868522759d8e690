(* Cannon's algorithm, the MapReduce distributed sort, and the
   event-driven schedule replay. *)

module Cannon = Linalg.Cannon
module Summa = Linalg.Summa
module Matrix = Linalg.Matrix
module Simulate = Dlt.Simulate
module Schedule = Dlt.Schedule
module Linear = Dlt.Linear
module Star = Platform.Star
module Rng = Numerics.Rng

let checkb = Alcotest.(check bool)
let checkf msg ?(eps = 1e-9) expected actual =
  Alcotest.(check (float eps)) msg expected actual

let random_square rng n = Matrix.random rng ~rows:n ~cols:n

(* --- Cannon --- *)

let test_cannon_correct () =
  let rng = Rng.create ~seed:81 () in
  let a = random_square rng 24 and b = random_square rng 24 in
  let stats = Cannon.distributed ~grid:4 a b in
  checkb "product correct" true (Matrix.approx_equal stats.Cannon.result (Matrix.mul a b))

let test_cannon_trivial_grid () =
  let rng = Rng.create ~seed:82 () in
  let a = random_square rng 8 and b = random_square rng 8 in
  let stats = Cannon.distributed ~grid:1 a b in
  checkb "1x1 grid" true (Matrix.approx_equal stats.Cannon.result (Matrix.mul a b));
  Alcotest.(check int) "no communication" 0 stats.Cannon.words

let test_cannon_word_count () =
  let rng = Rng.create ~seed:83 () in
  let n = 12 and grid = 3 in
  let a = random_square rng n and b = random_square rng n in
  let stats = Cannon.distributed ~grid a b in
  Alcotest.(check int) "measured = closed form" (Cannon.word_volume ~grid ~n)
    stats.Cannon.words;
  Alcotest.(check int) "rounds" grid stats.Cannon.rounds

let test_cannon_vs_summa_volume () =
  (* Same asymptotic volume class: within a factor ~2 of SUMMA. *)
  let n = 32 and q = 4 in
  let cannon = Cannon.word_volume ~grid:q ~n in
  let summa = Summa.word_volume ~grid_rows:q ~grid_cols:q ~n in
  checkb "same order of magnitude" true
    (float_of_int cannon < 2. *. float_of_int summa
    && float_of_int cannon > 0.5 *. float_of_int summa)

let test_cannon_validation () =
  let rng = Rng.create ~seed:84 () in
  let a = random_square rng 10 and b = random_square rng 10 in
  checkb "grid must divide n" true
    (try
       ignore (Cannon.distributed ~grid:3 a b);
       false
     with Invalid_argument _ -> true)

let qcheck_cannon =
  QCheck.Test.make ~name:"cannon correct on random sizes and grids" ~count:20
    QCheck.(pair (int_range 1 4) small_int)
    (fun (grid, seed) ->
      let n = grid * (1 + (seed mod 5)) in
      let rng = Rng.create ~seed () in
      let a = random_square rng n and b = random_square rng n in
      let stats = Cannon.distributed ~grid a b in
      Matrix.approx_equal stats.Cannon.result (Matrix.mul a b))

(* --- schedule replay --- *)

let star3 = Star.of_speeds ~bandwidth:2. [ 1.; 2.; 4. ]

let test_replay_matches_makespan () =
  List.iter
    (fun model ->
      let schedule = Linear.schedule model star3 ~total:60. in
      checkf "DES replay = analytic makespan" ~eps:1e-9
        (Schedule.makespan schedule)
        (Simulate.makespan schedule))
    [ Schedule.Parallel; Schedule.One_port ]

let test_replay_trace_resources () =
  let schedule = Linear.schedule Schedule.One_port star3 ~total:60. in
  let trace = Simulate.replay schedule in
  Alcotest.(check int) "6 resources (link+cpu per worker)" 6
    (List.length (Des.Trace.resources trace))

let test_replay_gantt () =
  let schedule = Linear.schedule Schedule.One_port star3 ~total:60. in
  let gantt = Simulate.gantt schedule in
  checkb "gantt non-empty" true (String.length gantt > 0)

let test_replay_nonlinear () =
  let cost = Dlt.Cost_model.Power 2. in
  let schedule = Dlt.Nonlinear.schedule Schedule.One_port star3 cost ~total:30. in
  checkf "nonlinear replay" ~eps:1e-9 (Schedule.makespan schedule)
    (Simulate.makespan schedule)

let suites =
  [
    ( "cannon",
      [
        Alcotest.test_case "correct" `Quick test_cannon_correct;
        Alcotest.test_case "1x1 grid" `Quick test_cannon_trivial_grid;
        Alcotest.test_case "word count" `Quick test_cannon_word_count;
        Alcotest.test_case "vs summa volume" `Quick test_cannon_vs_summa_volume;
        Alcotest.test_case "validation" `Quick test_cannon_validation;
        QCheck_alcotest.to_alcotest qcheck_cannon;
      ] );
    ( "schedule replay",
      [
        Alcotest.test_case "matches makespan" `Quick test_replay_matches_makespan;
        Alcotest.test_case "trace resources" `Quick test_replay_trace_resources;
        Alcotest.test_case "gantt" `Quick test_replay_gantt;
        Alcotest.test_case "nonlinear schedule" `Quick test_replay_nonlinear;
      ] );
  ]
