(* Sample sort (paper §3): correctness of the sort itself, splitter
   selection, bucketing, and the concentration measurements. *)

module Sample_sort = Sortlib.Sample_sort
module Rng = Numerics.Rng

let checkb = Alcotest.(check bool)

let is_sorted cmp a =
  let ok = ref true in
  for i = 0 to Array.length a - 2 do
    if cmp a.(i) a.(i + 1) > 0 then ok := false
  done;
  !ok

let multiset_equal a b =
  let a = Array.copy a and b = Array.copy b in
  Array.sort compare a;
  Array.sort compare b;
  a = b

let test_sort_random () =
  let rng = Rng.create ~seed:1 () in
  let keys = Array.init 10_000 (fun _ -> Rng.float rng) in
  let out = Sample_sort.sort ~cmp:Float.compare rng keys ~p:8 in
  checkb "sorted" true (is_sorted Float.compare out);
  checkb "permutation" true (multiset_equal keys out)

let test_sort_with_duplicates () =
  let rng = Rng.create ~seed:2 () in
  let keys = Array.init 5_000 (fun _ -> float_of_int (Rng.int rng 10)) in
  let out = Sample_sort.sort ~cmp:Float.compare rng keys ~p:4 in
  checkb "sorted with dups" true (is_sorted Float.compare out);
  checkb "dups preserved" true (multiset_equal keys out)

let test_sort_already_sorted () =
  let rng = Rng.create ~seed:3 () in
  let keys = Array.init 1_000 float_of_int in
  let out = Sample_sort.sort ~cmp:Float.compare rng keys ~p:4 in
  checkb "sorted input" true (is_sorted Float.compare out)

let test_sort_reverse () =
  let rng = Rng.create ~seed:4 () in
  let keys = Array.init 1_000 (fun i -> float_of_int (1_000 - i)) in
  let out = Sample_sort.sort ~cmp:Float.compare rng keys ~p:4 in
  checkb "reverse input" true (is_sorted Float.compare out)

let test_sort_empty_and_tiny () =
  let rng = Rng.create ~seed:5 () in
  Alcotest.(check (array (float 0.))) "empty" [||]
    (Sample_sort.sort ~cmp:Float.compare rng [||] ~p:4);
  Alcotest.(check (array (float 0.))) "singleton" [| 1. |]
    (Sample_sort.sort ~cmp:Float.compare rng [| 1. |] ~p:4);
  Alcotest.(check (array (float 0.))) "p=1" [| 1.; 2.; 3. |]
    (Sample_sort.sort ~cmp:Float.compare rng [| 2.; 3.; 1. |] ~p:1)

let test_sort_p_exceeds_n () =
  let rng = Rng.create ~seed:6 () in
  let keys = [| 5.; 2.; 9. |] in
  let out = Sample_sort.sort ~cmp:Float.compare rng keys ~p:16 in
  checkb "p > n still sorts" true (is_sorted Float.compare out);
  checkb "p > n permutes" true (multiset_equal keys out)

let test_splitters_sorted () =
  let rng = Rng.create ~seed:7 () in
  let keys = Array.init 10_000 (fun _ -> Rng.float rng) in
  let splitters = Sample_sort.choose_splitters ~cmp:Float.compare rng keys ~p:8 ~s:64 in
  Alcotest.(check int) "p-1 splitters" 7 (Array.length splitters);
  checkb "splitters sorted" true (is_sorted Float.compare splitters)

let test_bucket_index_bounds () =
  let splitters = [| 10.; 20.; 30. |] in
  Alcotest.(check int) "below first" 0 (Sample_sort.bucket_index ~cmp:Float.compare splitters 5.);
  Alcotest.(check int) "middle" 2 (Sample_sort.bucket_index ~cmp:Float.compare splitters 25.);
  Alcotest.(check int) "above last" 3 (Sample_sort.bucket_index ~cmp:Float.compare splitters 35.);
  Alcotest.(check int) "equal goes right" 1
    (Sample_sort.bucket_index ~cmp:Float.compare splitters 10.)

let qcheck_bucket_index_vs_linear =
  QCheck.Test.make ~name:"bucket_index agrees with linear scan" ~count:300
    QCheck.(pair (list_of_size Gen.(int_range 0 20) (float_range 0. 100.)) (float_range 0. 100.))
    (fun (raw, key) ->
      let splitters = Array.of_list (List.sort_uniq Float.compare raw) in
      let linear =
        let rec scan i =
          if i >= Array.length splitters then i
          else if key < splitters.(i) then i
          else scan (i + 1)
        in
        scan 0
      in
      Sample_sort.bucket_index ~cmp:Float.compare splitters key = linear)

let test_partition_respects_splitters () =
  let rng = Rng.create ~seed:8 () in
  let keys = Array.init 5_000 (fun _ -> Rng.float rng) in
  let splitters = Sample_sort.choose_splitters ~cmp:Float.compare rng keys ~p:8 ~s:32 in
  let buckets = Sample_sort.partition ~cmp:Float.compare keys ~splitters in
  Array.iteri
    (fun b contents ->
      Array.iter
        (fun key ->
          if b > 0 then checkb "above previous splitter" true (key >= splitters.(b - 1));
          if b < Array.length splitters then
            checkb "below own splitter" true (key < splitters.(b)))
        contents)
    buckets.Sample_sort.contents

let test_partition_conserves () =
  let rng = Rng.create ~seed:9 () in
  let keys = Array.init 3_000 (fun _ -> Rng.float rng) in
  let splitters = Sample_sort.choose_splitters ~cmp:Float.compare rng keys ~p:5 ~s:16 in
  let buckets = Sample_sort.partition ~cmp:Float.compare keys ~splitters in
  let total =
    Array.fold_left (fun acc c -> acc + Array.length c) 0 buckets.Sample_sort.contents
  in
  Alcotest.(check int) "all keys bucketed" 3_000 total

let test_weighted_splitters_proportions () =
  let rng = Rng.create ~seed:10 () in
  let keys = Array.init 200_000 (fun _ -> Rng.float rng) in
  let weights = [| 1.; 3. |] in
  let splitters =
    Sample_sort.weighted_splitters ~cmp:Float.compare rng keys ~weights ~s:4096
  in
  Alcotest.(check int) "one splitter" 1 (Array.length splitters);
  (* Bucket 0 should get ~25% of uniform keys. *)
  checkb "splitter near first quartile" true (Float.abs (splitters.(0) -. 0.25) < 0.05)

let test_default_oversampling_grows () =
  checkb "s grows with n" true
    (Sample_sort.default_oversampling ~n:1_000_000
    > Sample_sort.default_oversampling ~n:1_000)

let test_max_bucket_ratio_uniform () =
  let buckets =
    { Sample_sort.splitters = [| 1. |]; contents = [| [| 0.; 0. |]; [| 2.; 2. |] |] }
  in
  Alcotest.(check (float 1e-9)) "balanced ratio" 1. (Sample_sort.max_bucket_ratio buckets)

(* E2's concentration check (Theorem B.4): the largest bucket over
   [trials] seeded splitter draws, as a multiple of N/p, with the
   paper's default oversampling. *)
let max_bucket_ratios rng ~keys ~n ~p ~trials =
  let s = Sample_sort.default_oversampling ~n in
  Array.init trials (fun _ ->
      let trial_rng = Rng.split rng in
      let population = keys trial_rng n in
      let splitters = Sample_sort.choose_splitters ~cmp:Float.compare trial_rng population ~p ~s in
      Sample_sort.max_bucket_ratio
        (Sample_sort.partition ~cmp:Float.compare population ~splitters))

let test_concentration_envelope () =
  (* With the paper's oversampling, exceeding the envelope should be
     rare (probability O(n^-1/3)); at n = 20000 and 40 trials we allow a
     small number of violations. *)
  let rng = Rng.create ~seed:11 () in
  let n = 20_000 in
  let ratios =
    max_bucket_ratios rng ~keys:(fun rng n -> Array.init n (fun _ -> Rng.float rng)) ~n ~p:8
      ~trials:40
  in
  let envelope = Sample_sort.theoretical_envelope ~n in
  let exceed = Array.fold_left (fun acc r -> if r > envelope then acc + 1 else acc) 0 ratios in
  checkb "mostly within envelope" true (exceed <= 4);
  let mean = Numerics.Stats.mean ratios in
  checkb "mean ratio sane" true (mean > 1. && mean < envelope)

let test_concentration_skewed_keys () =
  (* Sample sort is distribution-independent: skewed populations behave
     like uniform ones.  Keys are concentrated near 0 by an
     inverse-power transform of a uniform draw. *)
  let rng = Rng.create ~seed:12 () in
  let n = 20_000 in
  let ratios =
    max_bucket_ratios rng ~keys:(fun rng n -> Array.init n (fun _ -> Rng.float rng ** 3.)) ~n
      ~p:8 ~trials:20
  in
  checkb "skew does not break concentration" true
    (Numerics.Stats.mean ratios < Sample_sort.theoretical_envelope ~n)

let qcheck_sort_correct =
  QCheck.Test.make ~name:"sample sort sorts arbitrary int arrays" ~count:100
    QCheck.(pair small_int (array_of_size Gen.(int_range 0 500) (int_range (-1000) 1000)))
    (fun (seed, keys) ->
      let rng = Rng.create ~seed () in
      let out = Sample_sort.sort ~cmp:Int.compare rng keys ~p:7 in
      is_sorted Int.compare out
      && multiset_equal (Array.map float_of_int keys) (Array.map float_of_int out))

let test_hetero_sort_correct () =
  let rng = Rng.create ~seed:13 () in
  let star = Platform.Star.of_speeds [ 1.; 2.; 5. ] in
  let keys = Array.init 30_000 (fun _ -> Rng.float rng) in
  let result = Sortlib.Hetero_sort.run rng star ~keys in
  checkb "hetero sorted" true (is_sorted Float.compare result.Sortlib.Hetero_sort.sorted);
  checkb "hetero permutation" true (multiset_equal keys result.Sortlib.Hetero_sort.sorted)

let test_hetero_sort_balance () =
  let rng = Rng.create ~seed:14 () in
  let star = Platform.Star.of_speeds [ 1.; 4. ] in
  let keys = Array.init 100_000 (fun _ -> Rng.float rng) in
  let result = Sortlib.Hetero_sort.run rng star ~keys in
  let sizes = result.Sortlib.Hetero_sort.bucket_sizes in
  (* Speed-4 worker should receive about 4x the keys. *)
  let ratio = float_of_int sizes.(1) /. float_of_int sizes.(0) in
  checkb "buckets follow speeds" true (ratio > 3. && ratio < 5.)

let suites =
  [
    ( "sample sort",
      [
        Alcotest.test_case "random input" `Quick test_sort_random;
        Alcotest.test_case "duplicates" `Quick test_sort_with_duplicates;
        Alcotest.test_case "already sorted" `Quick test_sort_already_sorted;
        Alcotest.test_case "reverse" `Quick test_sort_reverse;
        Alcotest.test_case "empty and tiny" `Quick test_sort_empty_and_tiny;
        Alcotest.test_case "p > n" `Quick test_sort_p_exceeds_n;
        Alcotest.test_case "splitters sorted" `Quick test_splitters_sorted;
        Alcotest.test_case "bucket_index bounds" `Quick test_bucket_index_bounds;
        Alcotest.test_case "partition respects splitters" `Quick
          test_partition_respects_splitters;
        Alcotest.test_case "partition conserves" `Quick test_partition_conserves;
        Alcotest.test_case "weighted splitters" `Quick test_weighted_splitters_proportions;
        Alcotest.test_case "oversampling grows" `Quick test_default_oversampling_grows;
        Alcotest.test_case "max bucket ratio" `Quick test_max_bucket_ratio_uniform;
        QCheck_alcotest.to_alcotest qcheck_bucket_index_vs_linear;
        QCheck_alcotest.to_alcotest qcheck_sort_correct;
      ] );
    ( "concentration",
      [
        Alcotest.test_case "envelope holds" `Slow test_concentration_envelope;
        Alcotest.test_case "skewed keys" `Slow test_concentration_skewed_keys;
      ] );
    ( "heterogeneous sort",
      [
        Alcotest.test_case "correct" `Quick test_hetero_sort_correct;
        Alcotest.test_case "balance follows speeds" `Quick test_hetero_sort_balance;
      ] );
  ]
