(* The sequence-of-jobs matmul (paper §2, option (ii), ref [25]). *)

module Jobs = Mapreduce.Jobs
module Engine = Mapreduce.Engine
module Scheduler = Mapreduce.Scheduler
module Matrix = Linalg.Matrix
module Star = Platform.Star
module Rng = Numerics.Rng

let checkb = Alcotest.(check bool)
let checkf msg ?(eps = 1e-9) expected actual =
  Alcotest.(check (float eps)) msg expected actual

let star = Star.of_speeds [ 1.; 2.; 3. ]

let run_two_phase a b n chunk =
  let phase1 = Jobs.matmul_phase1 ~a:(Matrix.get a) ~b:(Matrix.get b) ~n ~chunk in
  let merge _ = function [ block ] -> block | blocks -> Jobs.sum_blocks () blocks in
  let result1 = Engine.run star phase1 ~reduce:merge in
  let phase2 = Jobs.matmul_phase2 ~phase1_output:result1.Engine.output ~chunk in
  let result2 = Engine.run star phase2 ~reduce:Jobs.sum_blocks in
  (result1, result2)

let test_two_phase_correct () =
  let rng = Rng.create ~seed:101 () in
  let n = 12 and chunk = 3 in
  let a = Matrix.random rng ~rows:n ~cols:n in
  let b = Matrix.random rng ~rows:n ~cols:n in
  let _, result2 = run_two_phase a b n chunk in
  let flat = Jobs.assemble_blocks result2.Engine.output ~n ~chunk in
  let reference = Matrix.mul a b in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      checkf "C(i,j)" ~eps:1e-9 (Matrix.get reference i j) flat.((i * n) + j)
    done
  done

let test_phase1_counts () =
  let rng = Rng.create ~seed:102 () in
  let n = 12 and chunk = 3 in
  let a = Matrix.random rng ~rows:n ~cols:n in
  let b = Matrix.random rng ~rows:n ~cols:n in
  let result1, _ = run_two_phase a b n chunk in
  let blocks = n / chunk in
  (* One intermediate pair per block triple. *)
  Alcotest.(check int) "pairs = (n/chunk)^3" (blocks * blocks * blocks)
    result1.Engine.shuffle.Mapreduce.Shuffle.pairs

let test_two_phase_identity () =
  let n = 8 and chunk = 2 in
  let identity () = Matrix.init ~rows:n ~cols:n (fun i j -> if i = j then 1. else 0.) in
  let a = identity () and b = identity () in
  let _, result2 = run_two_phase a b n chunk in
  let flat = Jobs.assemble_blocks result2.Engine.output ~n ~chunk in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      checkf "identity" (if i = j then 1. else 0.) flat.((i * n) + j)
    done
  done

let test_sum_blocks () =
  Alcotest.(check (array (float 1e-12))) "element-wise sum" [| 5.; 7. |]
    (Jobs.sum_blocks () [ [| 1.; 2. |]; [| 4.; 5. |] ]);
  Alcotest.(check (array (float 0.))) "empty" [||] (Jobs.sum_blocks () [])

let test_trade_off_vs_replicated () =
  (* The inflation moved: the single-job replicated matmul ships
     redundant map inputs; the two-phase pipeline ships partial blocks
     between jobs instead.  Both carry the same order of data
     (n³/chunk values), the point of the paper's discussion. *)
  let rng = Rng.create ~seed:103 () in
  let n = 12 and chunk = 3 in
  let a = Matrix.random rng ~rows:n ~cols:n in
  let b = Matrix.random rng ~rows:n ~cols:n in
  let replicated = Jobs.matmul_replicated ~a:(Matrix.get a) ~b:(Matrix.get b) ~n ~chunk in
  let rep_run =
    Engine.run star replicated ~reduce:(fun _ vs -> List.fold_left ( +. ) 0. vs)
  in
  let result1, _ = run_two_phase a b n chunk in
  let intermediate_words =
    float_of_int
      (result1.Engine.shuffle.Mapreduce.Shuffle.pairs * chunk * chunk)
  in
  let blocks = n / chunk in
  checkf "intermediate volume = n^3/chunk"
    (float_of_int (blocks * blocks * blocks * chunk * chunk))
    intermediate_words;
  (* Replicated map input is also Θ(n³/chunk): each of (n/chunk)³ tasks
     reads 2 chunk² blocks (before caching). *)
  checkb "same order of traffic" true
    (rep_run.Engine.map.Scheduler.communication <= 2. *. intermediate_words +. 1e-9)

let suites =
  [
    ( "two-phase matmul",
      [
        Alcotest.test_case "correct" `Quick test_two_phase_correct;
        Alcotest.test_case "phase-1 counts" `Quick test_phase1_counts;
        Alcotest.test_case "identity" `Quick test_two_phase_identity;
        Alcotest.test_case "sum blocks" `Quick test_sum_blocks;
        Alcotest.test_case "inflation trade-off" `Quick test_trade_off_vs_replicated;
      ] );
  ]
