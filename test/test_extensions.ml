(* Ablation machinery: recursive bisection partitioner, SUMMA, the 2.5D
   communication model, histogram sort and straggler jitter. *)

module Bisection = Partition.Bisection
module Column_partition = Partition.Column_partition
module Layout = Partition.Layout
module Lower_bound = Partition.Lower_bound
module Summa = Linalg.Summa
module C25d = Linalg.C25d
module Matrix = Linalg.Matrix
module Histogram_sort = Sortlib.Histogram_sort
module Rng = Numerics.Rng

let checkb = Alcotest.(check bool)
let checkf msg ?(eps = 1e-9) expected actual =
  Alcotest.(check (float eps)) msg expected actual

(* --- recursive bisection --- *)

let test_bisection_valid_layout () =
  let areas = [| 0.4; 0.3; 0.2; 0.1 |] in
  match Layout.validate ~tol:1e-7 ~expected_areas:areas (Bisection.layout ~areas) with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_bisection_equal_areas () =
  (* 4 equal areas: bisection recovers the quadrant partition, cost 4. *)
  checkf "quadrants" 4. (Bisection.cost ~areas:(Array.make 4 0.25))

let test_bisection_single () =
  checkf "whole square" 2. (Bisection.cost ~areas:[| 1. |])

let test_bisection_vs_dp () =
  (* The DP is optimal within the column-based class; bisection can win
     or lose but must stay within the same 7/4 ballpark on random
     instances. *)
  let rng = Rng.create ~seed:91 () in
  for _ = 1 to 100 do
    let p = 2 + Rng.int rng 20 in
    let raw = Array.init p (fun _ -> Rng.uniform rng 0.05 1.) in
    let total = Numerics.Kahan.sum raw in
    let areas = Array.map (fun a -> a /. total) raw in
    let bisection = Bisection.cost ~areas in
    let lb = Lower_bound.peri_sum ~areas in
    checkb "bisection above LB" true (bisection >= lb -. 1e-9);
    checkb "bisection within 2x LB" true (bisection <= 2. *. lb)
  done

let qcheck_bisection_valid =
  QCheck.Test.make ~name:"bisection always produces a valid layout" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 25) (float_range 0.01 10.))
    (fun raw ->
      QCheck.assume (raw <> []);
      let total = List.fold_left ( +. ) 0. raw in
      let areas = Array.of_list (List.map (fun a -> a /. total) raw) in
      match Layout.validate ~tol:1e-6 ~expected_areas:areas (Bisection.layout ~areas) with
      | Ok () -> true
      | Error _ -> false)

(* --- SUMMA --- *)

let test_summa_correct () =
  let rng = Rng.create ~seed:92 () in
  let n = 24 in
  let a = Matrix.random rng ~rows:n ~cols:n in
  let b = Matrix.random rng ~rows:n ~cols:n in
  let stats = Summa.distributed ~grid_rows:2 ~grid_cols:3 ~panel:5 a b in
  checkb "product correct" true (Matrix.approx_equal stats.Summa.result (Matrix.mul a b))

let test_summa_words_panel_independent () =
  let rng = Rng.create ~seed:93 () in
  let n = 16 in
  let a = Matrix.random rng ~rows:n ~cols:n in
  let b = Matrix.random rng ~rows:n ~cols:n in
  let words panel = (Summa.distributed ~grid_rows:2 ~grid_cols:2 ~panel a b).Summa.words in
  Alcotest.(check int) "panel 1 vs 4" (words 1) (words 4);
  Alcotest.(check int) "panel 4 vs 16" (words 4) (words 16);
  Alcotest.(check int) "matches closed form" (Summa.word_volume ~grid_rows:2 ~grid_cols:2 ~n)
    (words 8)

let test_summa_messages_drop_with_panel () =
  let rng = Rng.create ~seed:94 () in
  let n = 16 in
  let a = Matrix.random rng ~rows:n ~cols:n in
  let b = Matrix.random rng ~rows:n ~cols:n in
  let messages panel =
    (Summa.distributed ~grid_rows:2 ~grid_cols:2 ~panel a b).Summa.messages
  in
  Alcotest.(check int) "panel 1" (2 * 4 * 16) (messages 1);
  Alcotest.(check int) "panel 4" (2 * 4 * 4) (messages 4);
  Alcotest.(check int) "formula" (Summa.message_count ~grid_rows:2 ~grid_cols:2 ~n ~panel:4)
    (messages 4)

let test_summa_matches_rank1_volume () =
  (* SUMMA on an equal grid moves the same words as the rank-1 zone
     algorithm on the same zones. *)
  let n = 20 in
  let zones = Linalg.Zone.uniform_grid ~p:4 ~n in
  Alcotest.(check int) "volumes agree"
    (Linalg.Matmul.predicted_communication ~zones ~n)
    (Summa.word_volume ~grid_rows:2 ~grid_cols:2 ~n)

let test_summa_ragged_n () =
  let rng = Rng.create ~seed:95 () in
  let n = 17 in
  let a = Matrix.random rng ~rows:n ~cols:n in
  let b = Matrix.random rng ~rows:n ~cols:n in
  let stats = Summa.distributed ~grid_rows:3 ~grid_cols:2 ~panel:4 a b in
  checkb "ragged grid correct" true (Matrix.approx_equal stats.Summa.result (Matrix.mul a b));
  Alcotest.(check int) "steps = ceil(n/panel)" 5 stats.Summa.steps

(* --- 2.5D model --- *)

let test_c25d_matches_2d () =
  (* c = 1 on a square grid must equal the measured SUMMA volume
     2n²√p. *)
  let n = 32 and p = 16 in
  let model = C25d.evaluate ~p ~c:1 ~n in
  checkf "2D volume" ~eps:1e-6
    (float_of_int (Summa.word_volume ~grid_rows:4 ~grid_cols:4 ~n))
    model.C25d.total

let test_c25d_replication_saves () =
  let n = 64 and p = 32 in
  let flat = C25d.evaluate ~p:16 ~c:1 ~n in
  ignore flat;
  let two_half = C25d.evaluate ~p ~c:2 ~n in
  checkf "per-proc speedup sqrt c" ~eps:1e-9 (sqrt 2.) (C25d.speedup_over_2d ~p ~c:2 ~n);
  checkb "memory cost" true (two_half.C25d.memory_factor = 2.)

let test_c25d_validation () =
  checkb "c beyond p^(1/3) rejected" true
    (try
       ignore (C25d.evaluate ~p:16 ~c:4 ~n:8);
       false
     with Invalid_argument _ -> true);
  checkb "non-square p/c rejected" true
    (try
       ignore (C25d.evaluate ~p:12 ~c:1 ~n:8);
       false
     with Invalid_argument _ -> true)

(* --- histogram sort --- *)

let test_histogram_sorts () =
  let rng = Rng.create ~seed:96 () in
  let keys = Array.init 20_000 (fun _ -> Rng.float rng) in
  let out = Histogram_sort.sort keys ~p:8 in
  let reference = Array.copy keys in
  Array.sort Float.compare reference;
  Alcotest.(check (array (float 0.))) "sorted output" reference out

let test_histogram_balance () =
  let rng = Rng.create ~seed:97 () in
  let keys = Array.init 50_000 (fun _ -> Rng.float rng) in
  let result = Histogram_sort.splitters ~tolerance:0.01 keys ~p:16 in
  checkb "tight balance" true (Sortlib.Sample_sort.max_bucket_ratio result.Histogram_sort.bucket_sizes <= 1.011);
  checkb "needed a few passes" true (result.Histogram_sort.passes > 1)

let test_histogram_beats_sample_sort_balance () =
  (* The point of the ablation: deterministic refinement balances
     tighter than one random sample. *)
  let rng = Rng.create ~seed:98 () in
  let keys = Array.init 50_000 (fun _ -> Rng.float rng) in
  let histogram = Histogram_sort.splitters ~tolerance:0.01 keys ~p:16 in
  let splitters = Sortlib.Sample_sort.choose_splitters_floats rng keys ~p:16 ~s:64 in
  let sizes = Kernels.Scatter.histogram_floats keys ~splitters in
  checkb "histogram tighter" true
    (Sortlib.Sample_sort.max_bucket_ratio histogram.Histogram_sort.bucket_sizes
    <= Sortlib.Sample_sort.max_bucket_ratio sizes +. 1e-9)

let test_histogram_skewed_input () =
  let rng = Rng.create ~seed:99 () in
  let keys = Array.init 30_000 (fun _ -> Rng.float rng ** 4.) in
  let result = Histogram_sort.splitters ~tolerance:0.02 keys ~p:8 in
  checkb "skew handled" true (Sortlib.Sample_sort.max_bucket_ratio result.Histogram_sort.bucket_sizes <= 1.03)

let test_histogram_p1 () =
  let result = Histogram_sort.splitters [| 3.; 1.; 2. |] ~p:1 in
  Alcotest.(check int) "single bucket" 3 result.Histogram_sort.bucket_sizes.(0);
  Alcotest.(check int) "no passes" 0 result.Histogram_sort.passes

let qcheck_histogram_sorts =
  QCheck.Test.make ~name:"histogram sort sorts arbitrary float arrays" ~count:50
    QCheck.(array_of_size Gen.(int_range 1 500) (float_range (-100.) 100.))
    (fun keys ->
      QCheck.assume (Array.length keys > 0);
      let out = Histogram_sort.sort keys ~p:5 in
      let reference = Array.copy keys in
      Array.sort Float.compare reference;
      out = reference)

(* --- combiner and jitter --- *)

let test_jitter_determinism () =
  let star = Platform.Star.of_speeds [ 1.; 1. ] in
  let tasks = Array.init 10 (fun i -> Mapreduce.Task.make ~id:i ~data_ids:[| i |] ~cost:5.) in
  let run seed =
    (Mapreduce.Scheduler.run ~jitter:(Rng.create ~seed (), 0.5) star ~tasks
       ~block_size:(fun _ -> 1.))
      .Mapreduce.Scheduler.makespan
  in
  checkf "same seed, same makespan" (run 5) (run 5);
  checkb "different seed, different makespan" true (run 5 <> run 6)

let test_jitter_speculation_rescues () =
  (* With heavy-tailed stragglers, speculation should cut the expected
     makespan. *)
  let star = Platform.Star.of_speeds [ 1.; 1.; 1.; 1. ] in
  let tasks = Array.init 24 (fun i -> Mapreduce.Task.make ~id:i ~data_ids:[| i |] ~cost:10.) in
  let total speculation seed =
    (Mapreduce.Scheduler.run
       ~config:{ Mapreduce.Scheduler.default_config with speculation }
       ~jitter:(Rng.create ~seed (), 1.5)
       star ~tasks ~block_size:(fun _ -> 0.1))
      .Mapreduce.Scheduler.makespan
  in
  let seeds = List.init 20 (fun i -> 100 + i) in
  let sum speculation =
    List.fold_left (fun acc seed -> acc +. total speculation seed) 0. seeds
  in
  checkb "speculation cuts expected makespan" true
    (sum Mapreduce.Scheduler.At_idle < sum Mapreduce.Scheduler.Off)

let suites =
  [
    ( "bisection partitioner",
      [
        Alcotest.test_case "valid layout" `Quick test_bisection_valid_layout;
        Alcotest.test_case "equal areas" `Quick test_bisection_equal_areas;
        Alcotest.test_case "single area" `Quick test_bisection_single;
        Alcotest.test_case "vs DP on random instances" `Slow test_bisection_vs_dp;
        QCheck_alcotest.to_alcotest qcheck_bisection_valid;
      ] );
    ( "summa",
      [
        Alcotest.test_case "correct" `Quick test_summa_correct;
        Alcotest.test_case "words panel-independent" `Quick test_summa_words_panel_independent;
        Alcotest.test_case "messages drop with panel" `Quick test_summa_messages_drop_with_panel;
        Alcotest.test_case "matches rank-1 volume" `Quick test_summa_matches_rank1_volume;
        Alcotest.test_case "ragged n" `Quick test_summa_ragged_n;
      ] );
    ( "2.5D model",
      [
        Alcotest.test_case "matches 2D at c=1" `Quick test_c25d_matches_2d;
        Alcotest.test_case "replication saves sqrt(c)" `Quick test_c25d_replication_saves;
        Alcotest.test_case "validation" `Quick test_c25d_validation;
      ] );
    ( "histogram sort",
      [
        Alcotest.test_case "sorts" `Quick test_histogram_sorts;
        Alcotest.test_case "tight balance" `Quick test_histogram_balance;
        Alcotest.test_case "tighter than sample sort" `Quick
          test_histogram_beats_sample_sort_balance;
        Alcotest.test_case "skewed input" `Quick test_histogram_skewed_input;
        Alcotest.test_case "p = 1" `Quick test_histogram_p1;
        QCheck_alcotest.to_alcotest qcheck_histogram_sorts;
      ] );
    ( "combiner and jitter",
      [
        Alcotest.test_case "jitter determinism" `Quick test_jitter_determinism;
        Alcotest.test_case "speculation rescues stragglers" `Quick
          test_jitter_speculation_rescues;
      ] );
  ]
