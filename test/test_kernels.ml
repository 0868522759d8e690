(* The scatter/partition kernel layer (lib/kernels): permutation and
   splitter-boundary invariants, byte-identity with the historical
   list-based partition, 1-vs-N pool-domain identity (domains forced >= 2
   — CI/dev hosts may report a single core), segment sorting, and the
   O(p)-auxiliary-allocation contract via Gc counters. *)

module Scatter = Kernels.Scatter
module Seg_sort = Kernels.Seg_sort
module Sample_sort = Sortlib.Sample_sort
module Rng = Numerics.Rng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

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

(* The bucket of [key] by linear scan: smallest [i] with
   [key < splitters.(i)], [p - 1] when none.  Independent of the
   kernel's binary search, so it checks that search too. *)
let linear_bucket splitters key =
  let rec scan i =
    if i >= Array.length splitters || key < splitters.(i) then i else scan (i + 1)
  in
  scan 0

(* The pre-kernel implementation of the sample-sort partition: a cons
   cell per key, [List.rev] per bucket — kept here as the byte-identity
   reference (the kernel's stable scatter must reproduce it exactly). *)
let list_based_partition keys ~splitters =
  let p = Array.length splitters + 1 in
  let cells = Array.make p [] in
  Array.iter
    (fun key ->
      let b = linear_bucket splitters key in
      cells.(b) <- key :: cells.(b))
    keys;
  Array.map (fun cell -> Array.of_list (List.rev cell)) cells

(* Bit patterns, so that [-0.] and [0.] (equal under [<] and under
   Alcotest's float check) are told apart. *)
let bits a = Array.map Int64.bits_of_float a

let float_keys ~seed n =
  let rng = Rng.create ~seed () in
  Array.init n (fun _ -> Rng.float rng)

let float_splitters ~seed keys ~p =
  Sample_sort.choose_splitters_floats (Rng.create ~seed ()) keys ~p ~s:32

(* --- partition invariants ---------------------------------------------- *)

let test_partition_permutation () =
  let keys = float_keys ~seed:1 5_000 in
  let splitters = float_splitters ~seed:2 keys ~p:8 in
  let flat = Scatter.partition_floats keys ~splitters in
  checkb "data is a permutation of the input" true (multiset_equal keys flat.Scatter.data);
  checki "offsets span" (Array.length keys) flat.Scatter.offsets.(Scatter.num_buckets flat);
  checki "num buckets" 8 (Scatter.num_buckets flat);
  let monotone = ref true in
  for b = 0 to Scatter.num_buckets flat - 1 do
    if flat.Scatter.offsets.(b) > flat.Scatter.offsets.(b + 1) then monotone := false
  done;
  checkb "offsets monotone" true !monotone

let test_partition_respects_splitters () =
  let keys = float_keys ~seed:3 5_000 in
  let splitters = float_splitters ~seed:4 keys ~p:8 in
  let flat = Scatter.partition_floats keys ~splitters in
  for b = 0 to Scatter.num_buckets flat - 1 do
    let lo = Scatter.bucket_lo flat b and len = Scatter.bucket_len flat b in
    for i = lo to lo + len - 1 do
      let key = flat.Scatter.data.(i) in
      if b > 0 then checkb "above previous splitter" true (key >= splitters.(b - 1));
      if b < Array.length splitters then checkb "below own splitter" true (key < splitters.(b))
    done
  done

let test_partition_matches_list_based () =
  let keys = float_keys ~seed:5 10_000 in
  let splitters = float_splitters ~seed:6 keys ~p:16 in
  let reference = list_based_partition keys ~splitters in
  let flat = Scatter.partition_floats keys ~splitters in
  Alcotest.(check (array int64))
    "flat data = reference concat"
    (bits (Array.concat (Array.to_list reference)))
    (bits flat.Scatter.data);
  Alcotest.(check (array int)) "bucket sizes" (Array.map Array.length reference)
    (Scatter.bucket_sizes flat)

(* Stability, seen through keys that are equal under [<] but not
   bit-identical: a mix of [-0.] and [0.] (and a [-0.] splitter) must
   come out of every bucket in input order, sequentially and from the
   pool at 1, 2 and 3 domains.  n >= 16384, so the pool really slices. *)
let test_partition_stable_signed_zeros () =
  let rng = Rng.create ~seed:7 () in
  let keys =
    Array.init 40_000 (fun _ ->
        match Rng.int rng 4 with
        | 0 -> -0.
        | 1 -> 0.
        | _ -> (Rng.float rng *. 4.) -. 2.)
  in
  let splitters = [| -1.; -0.; 0.5; 1. |] in
  let expected = bits (Array.concat (Array.to_list (list_based_partition keys ~splitters))) in
  Alcotest.(check (array int64)) "sequential" expected
    (bits (Scatter.partition_floats keys ~splitters).Scatter.data);
  List.iter
    (fun domains ->
      let pool = Exec.Pool.create ~domains () in
      let parallel = Scatter.partition_floats_pool pool keys ~splitters in
      Exec.Pool.teardown pool;
      Alcotest.(check (array int64))
        (Printf.sprintf "pool at %d domains" domains)
        expected (bits parallel.Scatter.data))
    [ 1; 2; 3 ]

let test_partition_empty_and_degenerate () =
  let flat = Scatter.partition_floats [||] ~splitters:[| 0.5 |] in
  checki "empty data" 0 (Array.length flat.Scatter.data);
  Alcotest.(check (array int)) "empty offsets" [| 0; 0; 0 |] flat.Scatter.offsets;
  (* No splitters: everything lands in the single bucket, input order. *)
  let keys = [| 3.; 1.; 2. |] in
  let one = Scatter.partition_floats keys ~splitters:[||] in
  Alcotest.(check (array (float 0.))) "single bucket keeps order" keys one.Scatter.data

let test_histogram_matches_partition () =
  let keys = float_keys ~seed:8 20_000 in
  let splitters = float_splitters ~seed:9 keys ~p:12 in
  let flat = Scatter.partition_floats keys ~splitters in
  Alcotest.(check (array int)) "float histogram = bucket sizes" (Scatter.bucket_sizes flat)
    (Scatter.histogram_floats keys ~splitters)

let test_bucket_index_floats_agrees () =
  let keys = float_keys ~seed:10 2_000 in
  let splitters = float_splitters ~seed:11 keys ~p:9 in
  Array.iter
    (fun key ->
      checki "binary search = linear scan" (linear_bucket splitters key)
        (Scatter.bucket_index_floats splitters key))
    keys

(* --- pool-parallel identity -------------------------------------------- *)

let test_pool_partition_identical_any_domains () =
  (* Large enough that the pool variant really slices (n >= 16384), and
     domains forced >= 2: the host may report a single core, and a
     1-domain pool would degrade to the sequential path we are trying to
     compare against.  Every 97th key is replaced by NaN, an infinity or
     a splitter value, the keys the search must route by [<]. *)
  let keys = float_keys ~seed:12 60_000 in
  let splitters = float_splitters ~seed:13 keys ~p:16 in
  let specials = Array.append [| Float.nan; Float.infinity; Float.neg_infinity |] splitters in
  Array.iteri
    (fun i _ -> if i mod 97 = 0 then keys.(i) <- specials.(i / 97 mod Array.length specials))
    keys;
  let sequential = Scatter.partition_floats keys ~splitters in
  Alcotest.(check (array int64))
    "sequential data = linear-scan reference"
    (bits (Array.concat (Array.to_list (list_based_partition keys ~splitters))))
    (bits sequential.Scatter.data);
  List.iter
    (fun domains ->
      let pool = Exec.Pool.create ~domains () in
      let parallel = Scatter.partition_floats_pool pool keys ~splitters in
      Exec.Pool.teardown pool;
      Alcotest.(check (array int64))
        (Printf.sprintf "float data bit-identical at %d domains" domains)
        (bits sequential.Scatter.data) (bits parallel.Scatter.data);
      Alcotest.(check (array int))
        (Printf.sprintf "offsets identical at %d domains" domains)
        sequential.Scatter.offsets parallel.Scatter.offsets)
    [ 1; 2; 3; 4 ]

let test_multicore_sort_identical_forced_domains () =
  let keys = float_keys ~seed:15 50_000 in
  let reference = Array.copy keys in
  Array.sort Float.compare reference;
  List.iter
    (fun domains ->
      let out = Sortlib.Multicore.sort ~domains (Rng.create ~seed:16 ()) keys ~p:8 in
      Alcotest.(check (array (float 0.)))
        (Printf.sprintf "multicore sort at %d domains" domains)
        reference out)
    [ 1; 2; 3 ]

(* The paper's phase-2 cost, counted rather than modelled: each of the
   two classification passes adds ceil(log2 p) comparisons per key, so
   a sort of N keys records 2 N 4 at p = 16 and 2 N 5 at p = 17, on one
   domain and through the pool.  N is odd, so the batched descent also
   runs its single-key tail. *)
let test_comparisons_counted () =
  let n = 40_001 in
  let keys = float_keys ~seed:40 n in
  List.iter
    (fun (p, levels) ->
      List.iter
        (fun domains ->
          Obs.Metrics.reset ();
          Obs.Metrics.set_enabled true;
          Fun.protect
            ~finally:(fun () -> Obs.Metrics.set_enabled false)
            (fun () -> ignore (Sortlib.Multicore.sort ~domains (Rng.create ~seed:41 ()) keys ~p));
          Alcotest.(check (option int))
            (Printf.sprintf "scatter.comparisons at p = %d, %d domains" p domains)
            (Some (2 * n * levels))
            (List.assoc_opt "scatter.comparisons" (Obs.Metrics.snapshot ()).Obs.Metrics.counters))
        [ 1; 2 ])
    [ (16, 4); (17, 5) ]

(* --- segment sort ------------------------------------------------------ *)

let test_seg_sort_floats () =
  let keys = float_keys ~seed:17 2_000 in
  let data = Array.copy keys in
  let lo = 137 and len = 1_200 in
  Seg_sort.sort_floats data ~lo ~len;
  let expected =
    let seg = Array.sub keys lo len in
    Array.sort Float.compare seg;
    seg
  in
  Alcotest.(check (array (float 0.))) "segment sorted" expected (Array.sub data lo len);
  Alcotest.(check (array (float 0.))) "prefix untouched" (Array.sub keys 0 lo)
    (Array.sub data 0 lo);
  Alcotest.(check (array (float 0.)))
    "suffix untouched"
    (Array.sub keys (lo + len) (Array.length keys - lo - len))
    (Array.sub data (lo + len) (Array.length data - lo - len))

let test_seg_sort_adversarial () =
  List.iter
    (fun (name, data) ->
      let expected = Array.copy data in
      Array.sort Float.compare expected;
      Seg_sort.sort_floats data ~lo:0 ~len:(Array.length data);
      Alcotest.(check (array (float 0.))) name expected data)
    [
      ("all equal", Array.make 5_000 1.);
      ("already sorted", Array.init 5_000 float_of_int);
      ("reverse sorted", Array.init 5_000 (fun i -> float_of_int (5_000 - i)));
      ("two values", Array.init 5_000 (fun i -> float_of_int (i mod 2)));
      ("empty", [||]);
      ("singleton", [| 42. |]);
    ]

let test_seg_sort_bounds_checked () =
  let data = [| 1.; 2.; 3. |] in
  Alcotest.check_raises "negative lo" (Invalid_argument "Seg_sort.sort_floats: segment out of bounds")
    (fun () -> Seg_sort.sort_floats data ~lo:(-1) ~len:2);
  Alcotest.check_raises "overrun" (Invalid_argument "Seg_sort.sort_floats: segment out of bounds")
    (fun () -> Seg_sort.sort_floats data ~lo:2 ~len:2)

let qcheck_seg_sort_random_segments =
  QCheck.Test.make ~name:"random segments match Array.sort" ~count:200
    QCheck.(
      triple
        (array_of_size Gen.(int_range 0 200) (float_range (-500.) 500.))
        small_nat small_nat)
    (fun (keys, a, b) ->
      let n = Array.length keys in
      let lo = if n = 0 then 0 else a mod (n + 1) in
      let len = if n - lo = 0 then 0 else b mod (n - lo + 1) in
      let data = Array.copy keys in
      Seg_sort.sort_floats data ~lo ~len;
      let expected =
        let out = Array.copy keys in
        let seg = Array.sub keys lo len in
        Array.sort Float.compare seg;
        Array.blit seg 0 out lo len;
        out
      in
      data = expected)

(* --- segment sort: the total order on key images ------------------------ *)

(* The kernel's order, written independently of it: the unsigned
   comparison of each key's 64-bit image, where a set sign bit flips
   every bit and a clear one flips only the sign.  That is
   −NaN < −∞ < … < −0 < +0 < … < +∞ < +NaN, with NaN payloads ordered
   by their bits. *)
let image x =
  let b = Int64.bits_of_float x in
  if Int64.compare b 0L < 0 then Int64.lognot b else Int64.logxor b Int64.min_int

let of_image u =
  Int64.float_of_bits
    (if Int64.compare u 0L < 0 then Int64.logxor u Int64.min_int else Int64.lognot u)

let reference_sort keys =
  let a = Array.copy keys in
  Array.sort (fun x y -> Int64.unsigned_compare (image x) (image y)) a;
  a

(* Sort [keys] as the segment [3, 3 + n) of a larger array and compare
   every bit of the whole array, the guard keys included. *)
let check_against_reference name keys =
  let n = Array.length keys in
  let guard = [| Float.nan; -0.; infinity |] in
  let data = Array.concat [ guard; keys; guard ] in
  Seg_sort.sort_floats data ~lo:3 ~len:n;
  Alcotest.(check (array int64)) name
    (bits (Array.concat [ guard; reference_sort keys; guard ]))
    (bits data)

let specials =
  [|
    Int64.float_of_bits 0x7FF8_0000_0000_0001L (* +NaN, payload 1 *);
    Int64.float_of_bits 0x7FF0_0000_0000_0001L (* +NaN, signalling *);
    Int64.float_of_bits 0xFFF8_0000_0000_0000L (* -NaN *);
    Int64.float_of_bits 0xFFF0_0000_0000_0003L (* -NaN, signalling *);
    infinity; neg_infinity; 0.; -0.; 4.9e-324; -4.9e-324;
    Int64.float_of_bits 0x000F_FFFF_FFFF_FFFFL (* largest subnormal *);
    Float.min_float; max_float; -.max_float; 1.; -1.; Float.succ 1.; Float.pred (-1.);
  |]

(* Images [v * 256^d] for digits v = 1..99 in every byte position d, plus
   0: each level's largest sub-bucket holds every key of the lower byte
   positions, so the recursion runs all eight levels.  [positive] sets
   the image's top bit (positive keys); without it the keys are negative,
   down to −NaN. *)
let nested_keys ~positive =
  let top = if positive then Int64.min_int else 0L in
  let keys = ref [ of_image top ] in
  for d = 0 to 7 do
    for v = 1 to 99 do
      keys := of_image (Int64.logor top (Int64.shift_left (Int64.of_int v) (8 * d))) :: !keys
    done
  done;
  Array.of_list !keys

let test_seg_sort_total_order_specials () =
  let rng = Rng.create ~seed:31 () in
  check_against_reference "specials once" specials;
  check_against_reference "specials, 40 copies shuffled"
    (let a = Array.concat (List.init 40 (fun _ -> specials)) in
     Rng.shuffle rng a;
     a);
  List.iter
    (fun positive ->
      let a = nested_keys ~positive in
      Rng.shuffle rng a;
      check_against_reference
        (Printf.sprintf "eight nested levels (%s)" (if positive then "positive" else "negative"))
        a)
    [ true; false ];
  check_against_reference "differ only in the last mantissa bit"
    (Array.init 5_000 (fun _ ->
         Int64.float_of_bits (Int64.logor 0x3FF8_0000_0000_0000L (Int64.of_int (Rng.int rng 2)))));
  check_against_reference "differ only in the last 9 bits"
    (Array.init 5_000 (fun _ ->
         Int64.float_of_bits (Int64.logor 0xC008_0000_0000_0000L (Int64.of_int (Rng.int rng 512)))));
  check_against_reference "differ only in sign"
    (Array.init 5_000 (fun _ ->
         let x = float_of_int (1 + Rng.int rng 3) in
         if Rng.bool rng then x else -.x));
  check_against_reference "+0 and -0 only"
    (Array.init 1_000 (fun _ -> if Rng.bool rng then 0. else -0.));
  check_against_reference "all-equal run" (Array.make 3_000 (-2.5));
  check_against_reference "all-equal runs of NaN"
    (Array.init 3_000 (fun i -> if i mod 2 = 0 then Float.nan else -.Float.nan))

(* Every length from 0 to 200 (the insertion leaves and the first radix
   levels), then larger ones, on keys mixing the specials, duplicates
   and random keys of every magnitude and sign. *)
let test_seg_sort_total_order_lengths () =
  let rng = Rng.create ~seed:32 () in
  let key () =
    match Rng.int rng 4 with
    | 0 -> specials.(Rng.int rng (Array.length specials))
    | 1 -> float_of_int (Rng.int rng 10 - 5)
    | 2 -> Int64.float_of_bits (Rng.int64 rng)
    | _ -> Rng.uniform rng (-1.) 1.
  in
  for n = 0 to 200 do
    check_against_reference (Printf.sprintf "mixed keys, n = %d" n) (Array.init n (fun _ -> key ()))
  done;
  List.iter
    (fun n ->
      check_against_reference (Printf.sprintf "mixed keys, n = %d" n) (Array.init n (fun _ -> key ()));
      check_against_reference (Printf.sprintf "uniform keys, n = %d" n) (float_keys ~seed:n n))
    [ 1_000; 10_000; 100_000 ]

(* --- allocation contract ----------------------------------------------- *)

let minor_words_of f =
  Gc.full_major ();
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_partition_allocation_o_p () =
  let n = 200_000 in
  let keys = float_keys ~seed:18 n in
  let splitters = float_splitters ~seed:19 keys ~p:16 in
  (* Warm-up so one-time setup is not charged. *)
  ignore (Scatter.partition_floats keys ~splitters);
  ignore (list_based_partition keys ~splitters);
  let kernel = minor_words_of (fun () -> ignore (Scatter.partition_floats keys ~splitters)) in
  let legacy =
    minor_words_of (fun () -> ignore (list_based_partition keys ~splitters))
  in
  (* The counting kernel's output array goes straight to the major heap
     (> Max_young_wosize), so its minor-heap footprint is the O(p)
     auxiliary state only; the cons-per-key path burns O(n) words. *)
  checkb
    (Printf.sprintf "kernel minor words O(p), not O(n): %.0f for n=%d" kernel n)
    true
    (kernel < float_of_int n /. 4.);
  checkb
    (Printf.sprintf "list-based reference is O(n): %.0f for n=%d" legacy n)
    true
    (legacy > float_of_int n);
  (* And phase 3 on the flat array: in-place segment sort allocates
     nothing per element either. *)
  let flat = Scatter.partition_floats keys ~splitters in
  let sort_alloc =
    minor_words_of (fun () ->
        let sl = Scatter.slice_make () in
        for b = 0 to Scatter.num_buckets flat - 1 do
          Scatter.bucket_slice flat b sl;
          Seg_sort.sort_floats flat.Scatter.data ~lo:sl.Scatter.lo ~len:sl.Scatter.len
        done)
  in
  checkb
    (Printf.sprintf "segment sorts allocation-free: %.0f words" sort_alloc)
    true
    (sort_alloc < float_of_int n /. 4.)

let test_seg_sort_allocation_free () =
  let keys = float_keys ~seed:33 200_000 in
  let data = Array.copy keys in
  Seg_sort.sort_floats data ~lo:0 ~len:(Array.length data);
  Array.blit keys 0 data 0 (Array.length keys);
  let words =
    minor_words_of (fun () -> Seg_sort.sort_floats data ~lo:0 ~len:(Array.length data))
  in
  Alcotest.(check (float 0.)) "minor words after warm-up" 0. words

let suites =
  [
    ( "scatter kernel",
      [
        Alcotest.test_case "permutation + offsets" `Quick test_partition_permutation;
        Alcotest.test_case "respects splitters" `Quick test_partition_respects_splitters;
        Alcotest.test_case "byte-identical to list-based" `Quick test_partition_matches_list_based;
        Alcotest.test_case "stable on signed zeros" `Quick test_partition_stable_signed_zeros;
        Alcotest.test_case "empty and degenerate" `Quick test_partition_empty_and_degenerate;
        Alcotest.test_case "histogram = bucket sizes" `Quick test_histogram_matches_partition;
        Alcotest.test_case "bucket_index_floats agrees" `Quick test_bucket_index_floats_agrees;
        Alcotest.test_case "pool identical at any domain count" `Quick
          test_pool_partition_identical_any_domains;
        Alcotest.test_case "multicore sort, forced domains" `Quick
          test_multicore_sort_identical_forced_domains;
        Alcotest.test_case "comparisons counted, 2 N ceil(log2 p)" `Quick test_comparisons_counted;
        Alcotest.test_case "O(p) auxiliary allocation" `Quick test_partition_allocation_o_p;
      ] );
    ( "segment sort",
      [
        Alcotest.test_case "sorts a segment in place" `Quick test_seg_sort_floats;
        Alcotest.test_case "adversarial inputs" `Quick test_seg_sort_adversarial;
        Alcotest.test_case "bounds checked" `Quick test_seg_sort_bounds_checked;
        QCheck_alcotest.to_alcotest qcheck_seg_sort_random_segments;
        Alcotest.test_case "total order: specials and deep levels" `Quick
          test_seg_sort_total_order_specials;
        Alcotest.test_case "total order: lengths 0-200 and up to 1e5" `Quick
          test_seg_sort_total_order_lengths;
        Alcotest.test_case "zero allocation after warm-up" `Quick test_seg_sort_allocation_free;
      ] );
  ]
