(* Sample sort (paper §3): correctness of the sort itself, splitter
   selection, bucketing, and the concentration measurements. *)

module Sample_sort = Sortlib.Sample_sort
module Scatter = Kernels.Scatter
module Rng = Numerics.Rng

(* The whole pipeline, every phase sequential. *)
let sort rng keys ~p = Sortlib.Multicore.sort ~domains:1 rng keys ~p

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
  let out = sort rng keys ~p:8 in
  checkb "sorted" true (is_sorted Float.compare out);
  checkb "permutation" true (multiset_equal keys out)

let test_sort_with_duplicates () =
  let rng = Rng.create ~seed:2 () in
  let keys = Array.init 5_000 (fun _ -> float_of_int (Rng.int rng 10)) in
  let out = sort rng keys ~p:4 in
  checkb "sorted with dups" true (is_sorted Float.compare out);
  checkb "dups preserved" true (multiset_equal keys out)

let test_sort_already_sorted () =
  let rng = Rng.create ~seed:3 () in
  let keys = Array.init 1_000 float_of_int in
  let out = sort rng keys ~p:4 in
  checkb "sorted input" true (is_sorted Float.compare out)

let test_sort_reverse () =
  let rng = Rng.create ~seed:4 () in
  let keys = Array.init 1_000 (fun i -> float_of_int (1_000 - i)) in
  let out = sort rng keys ~p:4 in
  checkb "reverse input" true (is_sorted Float.compare out)

let test_sort_empty_and_tiny () =
  let rng = Rng.create ~seed:5 () in
  Alcotest.(check (array (float 0.))) "empty" [||]
    (sort rng [||] ~p:4);
  Alcotest.(check (array (float 0.))) "singleton" [| 1. |]
    (sort rng [| 1. |] ~p:4);
  Alcotest.(check (array (float 0.))) "p=1" [| 1.; 2.; 3. |]
    (sort rng [| 2.; 3.; 1. |] ~p:1)

let test_sort_p_exceeds_n () =
  let rng = Rng.create ~seed:6 () in
  let keys = [| 5.; 2.; 9. |] in
  let out = sort rng keys ~p:16 in
  checkb "p > n still sorts" true (is_sorted Float.compare out);
  checkb "p > n permutes" true (multiset_equal keys out)

let test_splitters_sorted () =
  let rng = Rng.create ~seed:7 () in
  let keys = Array.init 10_000 (fun _ -> Rng.float rng) in
  let splitters = Sample_sort.choose_splitters_floats rng keys ~p:8 ~s:64 in
  Alcotest.(check int) "p-1 splitters" 7 (Array.length splitters);
  checkb "splitters sorted" true (is_sorted Float.compare splitters)

let test_bucket_index_bounds () =
  let splitters = [| 10.; 20.; 30. |] in
  Alcotest.(check int) "below first" 0 (Scatter.bucket_index_floats splitters 5.);
  Alcotest.(check int) "middle" 2 (Scatter.bucket_index_floats splitters 25.);
  Alcotest.(check int) "above last" 3 (Scatter.bucket_index_floats splitters 35.);
  Alcotest.(check int) "equal goes right" 1
    (Scatter.bucket_index_floats splitters 10.)

let linear_bucket splitters key =
  let rec scan i =
    if i >= Array.length splitters || key < splitters.(i) then i else scan (i + 1)
  in
  scan 0

let special_keys = [ Float.nan; Float.infinity; Float.neg_infinity; 0.; -0. ]

(* Bit equality, so that [-0.] and [0.], and NaNs, are told apart. *)
let same_bits (a : float array) (b : float array) =
  let same = ref (Array.length a = Array.length b) in
  if !same then
    for i = 0 to Array.length a - 1 do
      if Int64.bits_of_float a.(i) <> Int64.bits_of_float b.(i) then same := false
    done;
  !same

(* What every classification kernel must reproduce, from the scalar
   search one key at a time: the bucket sizes, and the stable
   bucket-major permutation with its offsets. *)
let scalar_partition splitters keys =
  let p = Array.length splitters + 1 in
  let bucket = Array.map (Scatter.bucket_index_floats splitters) keys in
  let counts = Array.make p 0 in
  Array.iter (fun b -> counts.(b) <- counts.(b) + 1) bucket;
  let offsets = Array.make (p + 1) 0 in
  for b = 0 to p - 1 do
    offsets.(b + 1) <- offsets.(b) + counts.(b)
  done;
  let cursor = Array.sub offsets 0 p and data = Array.make (Array.length keys) 0. in
  Array.iteri
    (fun i b ->
      data.(cursor.(b)) <- keys.(i);
      cursor.(b) <- cursor.(b) + 1)
    bucket;
  (counts, offsets, data)

(* Every splitter count from 0 to 70 (so [p] both a power of two and
   not), with every splitter duplicated and the ends at +-infinity.
   The scalar search must agree with the linear scan on each splitter,
   each midpoint and the special keys (NaN, +-infinity, +-0).  Then the
   batched tree classifier behind [histogram_floats_into],
   [partition_floats] and [partition_floats_pool] (1-4 domains) must
   agree with the scalar search bit for bit, on arrays of every length
   0-9 (each residue mod the 4 keys in flight, and shorter than 4) and
   on two arrays long enough for the pool to slice, whose four slices
   have lengths of every residue mod 4. *)
let test_bucket_index_every_m () =
  let pools = List.map (fun domains -> (domains, Exec.Pool.create ~domains ())) [ 1; 2; 3; 4 ] in
  let rng = Rng.create ~seed:70 () in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (_, pool) -> Exec.Pool.teardown pool) pools)
    (fun () ->
      for m = 0 to 70 do
        let splitters =
          Array.init m (fun i ->
              if i = 0 then Float.neg_infinity
              else if i = m - 1 && m > 2 then Float.infinity
              else float_of_int (i / 2))
        in
        let keys =
          special_keys
          @ List.concat_map (fun s -> [ s; s -. 0.5; s +. 0.5 ]) (Array.to_list splitters)
        in
        List.iter
          (fun key ->
            Alcotest.(check int)
              (Printf.sprintf "m = %d, key = %h" m key)
              (linear_bucket splitters key)
              (Scatter.bucket_index_floats splitters key))
          keys;
        let pool_of_keys = Array.of_list keys in
        let draw () =
          if Rng.int rng 2 = 0 then pool_of_keys.(Rng.int rng (Array.length pool_of_keys))
          else Rng.uniform rng (-1.) (float_of_int (m / 2) +. 1.)
        in
        let check_kernels name keys ~pooled =
          let label what = Printf.sprintf "m = %d, %s: %s" m name what in
          let counts, offsets, data = scalar_partition splitters keys in
          (* One spare slot past [p], which the histogram must not touch. *)
          let into = Array.make (m + 2) (-1) in
          Scatter.histogram_floats_into into keys ~splitters;
          Alcotest.(check (array int)) (label "histogram_floats_into")
            (Array.append counts [| -1 |]) into;
          let check_flat what (flat : Scatter.t) =
            Alcotest.(check (array int)) (label (what ^ " offsets")) offsets flat.Scatter.offsets;
            checkb (label (what ^ " data bits")) true (same_bits data flat.Scatter.data)
          in
          check_flat "partition_floats" (Scatter.partition_floats keys ~splitters);
          if pooled then
            List.iter
              (fun (domains, pool) ->
                check_flat
                  (Printf.sprintf "pool at %d domains" domains)
                  (Scatter.partition_floats_pool pool keys ~splitters))
              pools
        in
        for len = 0 to 9 do
          check_kernels (Printf.sprintf "length %d" len) (Array.init len (fun _ -> draw ()))
            ~pooled:false
        done;
        List.iter
          (fun n ->
            check_kernels (Printf.sprintf "length %d" n) (Array.init n (fun _ -> draw ()))
              ~pooled:true)
          (* Slices of 8192 and 8193 keys, then of 8194 and 8195. *)
          [ 16_385; 16_389 ]
      done)

let qcheck_bucket_index_vs_linear =
  let value =
    QCheck.Gen.(
      frequency
        [
          (6, float_range 0. 100.);
          (2, map float_of_int (int_range 0 10));
          (1, oneofl [ Float.infinity; Float.neg_infinity ]);
        ])
  in
  let key = QCheck.Gen.(frequency [ (8, float_range (-10.) 110.); (1, oneofl special_keys) ]) in
  QCheck.Test.make ~name:"bucket_index agrees with linear scan" ~count:500
    QCheck.(
      make
        ~print:Print.(pair (list float) float)
        Gen.(pair (list_size (int_range 0 70) value) key))
    (fun (raw, key) ->
      (* Sorted but not deduplicated: repeated splitters (small
         integers, infinities) are legal and must route like the scan. *)
      let splitters = Array.of_list (List.sort Float.compare raw) in
      List.for_all
        (fun k -> Scatter.bucket_index_floats splitters k = linear_bucket splitters k)
        ((key :: special_keys) @ raw))

let test_partition_respects_splitters () =
  let rng = Rng.create ~seed:8 () in
  let keys = Array.init 5_000 (fun _ -> Rng.float rng) in
  let splitters = Sample_sort.choose_splitters_floats rng keys ~p:8 ~s:32 in
  let flat = Scatter.partition_floats keys ~splitters in
  for b = 0 to Scatter.num_buckets flat - 1 do
    for i = Scatter.bucket_lo flat b to Scatter.bucket_lo flat b + Scatter.bucket_len flat b - 1 do
      let key = flat.Scatter.data.(i) in
      if b > 0 then checkb "above previous splitter" true (key >= splitters.(b - 1));
      if b < Array.length splitters then checkb "below own splitter" true (key < splitters.(b))
    done
  done

let test_partition_conserves () =
  let rng = Rng.create ~seed:9 () in
  let keys = Array.init 3_000 (fun _ -> Rng.float rng) in
  let splitters = Sample_sort.choose_splitters_floats rng keys ~p:5 ~s:16 in
  let flat = Scatter.partition_floats keys ~splitters in
  let total = Array.fold_left ( + ) 0 (Scatter.bucket_sizes flat) in
  Alcotest.(check int) "all keys bucketed" 3_000 total

let test_weighted_splitters_proportions () =
  let rng = Rng.create ~seed:10 () in
  let keys = Array.init 200_000 (fun _ -> Rng.float rng) in
  let weights = [| 1.; 3. |] in
  let splitters = Sample_sort.weighted_splitters_floats rng keys ~weights ~s:4096 in
  Alcotest.(check int) "one splitter" 1 (Array.length splitters);
  (* Bucket 0 should get ~25% of uniform keys. *)
  checkb "splitter near first quartile" true (Float.abs (splitters.(0) -. 0.25) < 0.05)

let test_default_oversampling_grows () =
  checkb "s grows with n" true
    (Sample_sort.default_oversampling ~n:1_000_000
    > Sample_sort.default_oversampling ~n:1_000)

let test_max_bucket_ratio_table () =
  List.iter
    (fun (name, sizes, expected) ->
      Alcotest.(check (float 0.)) name expected (Sample_sort.max_bucket_ratio sizes))
    [
      ("balanced", [| 2; 2 |], 1.);
      ("skewed", [| 1; 2; 6; 3 |], 2.);
      ("all empty", [| 0; 0; 0 |], 0.);
    ]

(* E2's concentration check (Theorem B.4): the largest bucket over
   [trials] seeded splitter draws, as a multiple of N/p, with the
   paper's default oversampling. *)
let max_bucket_ratios rng ~keys ~n ~p ~trials =
  let s = Sample_sort.default_oversampling ~n in
  Array.init trials (fun _ ->
      let trial_rng = Rng.split rng in
      let population = keys trial_rng n in
      let splitters = Sample_sort.choose_splitters_floats trial_rng population ~p ~s in
      Sample_sort.max_bucket_ratio (Scatter.histogram_floats population ~splitters))

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
      let keys = Array.map float_of_int keys in
      let out = sort rng keys ~p:7 in
      is_sorted Float.compare out && multiset_equal keys out)

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
        Alcotest.test_case "bucket_index every m <= 70" `Quick test_bucket_index_every_m;
        Alcotest.test_case "partition respects splitters" `Quick
          test_partition_respects_splitters;
        Alcotest.test_case "partition conserves" `Quick test_partition_conserves;
        Alcotest.test_case "weighted splitters" `Quick test_weighted_splitters_proportions;
        Alcotest.test_case "oversampling grows" `Quick test_default_oversampling_grows;
        Alcotest.test_case "max bucket ratio" `Quick test_max_bucket_ratio_table;
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
