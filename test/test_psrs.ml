(* Parallel Sorting by Regular Sampling, plus interaction tests that
   combine MapReduce features (affinity + speculation + combiner +
   placement) and exercise the N log N cost model through the nonlinear
   solver. *)

module Psrs = Sortlib.Psrs
module Rng = Numerics.Rng
module Star = Platform.Star

let checkb = Alcotest.(check bool)

let is_sorted a =
  let ok = ref true in
  for i = 0 to Array.length a - 2 do
    if a.(i) > a.(i + 1) then ok := false
  done;
  !ok

let test_psrs_sorts () =
  let rng = Rng.create ~seed:161 () in
  let keys = Array.init 20_000 (fun _ -> Rng.float rng) in
  let result = Psrs.sort keys ~p:8 in
  checkb "sorted" true (is_sorted result.Psrs.sorted);
  let reference = Array.copy keys in
  Array.sort Float.compare reference;
  Alcotest.(check (array (float 0.))) "permutation" reference result.Psrs.sorted

let test_psrs_guarantee () =
  (* Distinct keys: no bucket beyond 2·N/p. *)
  let rng = Rng.create ~seed:162 () in
  let keys = Array.init 50_000 (fun _ -> Rng.float rng) in
  let result = Psrs.sort keys ~p:16 in
  checkb "2N/p guarantee" true (Sortlib.Sample_sort.max_bucket_ratio result.Psrs.bucket_sizes <= 2.)

let test_psrs_tighter_than_random_sampling () =
  let rng = Rng.create ~seed:163 () in
  let keys = Array.init 50_000 (fun _ -> Rng.float rng) in
  let psrs = Psrs.sort keys ~p:16 in
  let splitters = Sortlib.Sample_sort.choose_splitters_floats rng keys ~p:16 ~s:16 in
  let sizes = Kernels.Scatter.histogram_floats keys ~splitters in
  (* Regular sampling with p samples/worker usually beats a small random
     sample; assert it is at least not catastrophically worse. *)
  checkb "competitive balance" true
    (Sortlib.Sample_sort.max_bucket_ratio psrs.Psrs.bucket_sizes
    <= Sortlib.Sample_sort.max_bucket_ratio sizes +. 0.5)

let test_psrs_edge_cases () =
  checkb "empty" true ((Psrs.sort [||] ~p:4).Psrs.sorted = [||]);
  let single = Psrs.sort [| 3.; 1.; 2. |] ~p:1 in
  Alcotest.(check (array (float 0.))) "p=1" [| 1.; 2.; 3. |] single.Psrs.sorted;
  let tiny = Psrs.sort [| 5.; 4. |] ~p:8 in
  checkb "p > n" true (is_sorted tiny.Psrs.sorted)

let test_psrs_duplicates () =
  let rng = Rng.create ~seed:164 () in
  let keys = Array.init 5_000 (fun _ -> float_of_int (Rng.int rng 5)) in
  let result = Psrs.sort keys ~p:8 in
  checkb "sorted with heavy duplicates" true (is_sorted result.Psrs.sorted);
  Alcotest.(check int) "conserved" 5_000 (Array.fold_left ( + ) 0 result.Psrs.bucket_sizes)

let qcheck_psrs =
  QCheck.Test.make ~name:"psrs sorts arbitrary arrays" ~count:100
    QCheck.(pair (array_of_size Gen.(int_range 0 400) (float_range (-10.) 10.)) (int_range 1 9))
    (fun (keys, p) ->
      let result = Psrs.sort keys ~p in
      let reference = Array.copy keys in
      Array.sort Float.compare reference;
      result.Psrs.sorted = reference)

(* --- feature interactions --- *)

let test_affinity_with_speculation_and_jitter () =
  let rng = Rng.create ~seed:165 () in
  let star = Platform.Profiles.generate rng ~p:4 Platform.Profiles.paper_uniform in
  let tasks =
    Array.init 32 (fun i ->
        Mapreduce.Task.make ~id:i ~data_ids:[| i mod 6 |] ~cost:5.)
  in
  let outcome =
    Mapreduce.Scheduler.run
      ~config:
        {
          Mapreduce.Scheduler.default_config with
          policy = Mapreduce.Scheduler.Affinity;
          speculation = Mapreduce.Scheduler.At_idle;
        }
      ~jitter:(Rng.create ~seed:9 (), 1.)
      star ~tasks
      ~block_size:(fun _ -> 2.)
  in
  Alcotest.(check int) "all complete" 32
    (Array.fold_left (fun acc c -> if Float.is_finite c then acc + 1 else acc) 0
       outcome.Mapreduce.Scheduler.completion);
  checkb "makespan positive" true (outcome.Mapreduce.Scheduler.makespan > 0.)

let test_nlogn_nonlinear_solver () =
  (* §3 via the solver: an N log N load benefits from many workers far
     more than an N² one. *)
  let cost = Dlt.Cost_model.N_log_n in
  let star p = Star.of_speeds (List.init p (fun _ -> 1.)) in
  let allocation, _ =
    Dlt.Nonlinear.equal_finish_allocation Dlt.Schedule.Parallel (star 8) cost ~total:10_000.
  in
  Array.iter
    (fun n -> checkb "near-even shares" true (Float.abs (n -. 1250.) < 1.))
    allocation;
  let fraction p =
    let allocation, _ =
      Dlt.Nonlinear.equal_finish_allocation Dlt.Schedule.Parallel (star p) cost
        ~total:10_000.
    in
    Dlt.Fraction.done_fraction cost ~allocation ~total:10_000.
  in
  (* Almost-divisible: at N = 10^4, 16 workers still execute ~70% of the
     sequential work, versus 6% for N². *)
  checkb "nlogn almost divisible" true (fraction 16 > 0.6);
  let quadratic, _ =
    Dlt.Nonlinear.equal_finish_allocation Dlt.Schedule.Parallel (star 16)
      (Dlt.Cost_model.Power 2.) ~total:10_000.
  in
  checkb "quadratic is not" true
    (Dlt.Fraction.done_fraction (Dlt.Cost_model.Power 2.) ~allocation:quadratic
       ~total:10_000.
    < 0.1)

let suites =
  [
    ( "psrs",
      [
        Alcotest.test_case "sorts" `Quick test_psrs_sorts;
        Alcotest.test_case "2N/p guarantee" `Quick test_psrs_guarantee;
        Alcotest.test_case "competitive with sampling" `Quick
          test_psrs_tighter_than_random_sampling;
        Alcotest.test_case "edge cases" `Quick test_psrs_edge_cases;
        Alcotest.test_case "duplicates" `Quick test_psrs_duplicates;
        QCheck_alcotest.to_alcotest qcheck_psrs;
      ] );
    ( "feature interactions",
      [
        Alcotest.test_case "affinity + speculation + jitter" `Quick
          test_affinity_with_speculation_and_jitter;
        Alcotest.test_case "N log N through the solver" `Quick test_nlogn_nonlinear_solver;
      ] );
  ]
