(* Flat-buffer overhaul: Fbuf semantics, strided merge equivalence,
   byte-identity of the flat sort pipelines against array-of-arrays
   references, boundary shapes, and Gc-counter proofs that the
   ratcheted paths really stopped allocating per key. *)

module Fbuf = Kernels.Fbuf
module Merge = Sortlib.Merge
module Rng = Numerics.Rng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let bits_equal a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri
        (fun i x ->
          if not (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float b.(i)))
          then ok := false)
        a;
      !ok)

(* --- Fbuf ------------------------------------------------------------- *)

let test_fbuf_create () =
  let b = Fbuf.create 5 in
  checki "length" 5 (Fbuf.length b);
  for i = 0 to 4 do
    Alcotest.(check (float 0.)) "zero-filled" 0. (Fbuf.get b i)
  done;
  checki "empty ok" 0 (Fbuf.length (Fbuf.create 0));
  Alcotest.check_raises "negative length"
    (Invalid_argument "Fbuf.create: negative length") (fun () ->
      ignore (Fbuf.create (-1)))

let test_fbuf_get_set () =
  let b = Fbuf.create 3 in
  Fbuf.set b 1 4.25;
  Alcotest.(check (float 0.)) "roundtrip" 4.25 (Fbuf.get b 1);
  checkb "out of range raises"
    true
    (match Fbuf.get b 3 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  checkb "negative index raises"
    true
    (match Fbuf.set b (-1) 0. with
    | () -> false
    | exception Invalid_argument _ -> true)

(* --- strided merge ----------------------------------------------------- *)

let test_k_way_strided_matches_sort () =
  let rng = Rng.create ~seed:71 () in
  let runs =
    List.init 5 (fun i ->
        let r = Array.init ((i * 13) mod 29) (fun _ -> Rng.float rng) in
        Array.sort Float.compare r;
        r)
  in
  (* Lay the runs out contiguously and describe them through a strided
     bounds matrix with a dummy column, as Psrs does. *)
  let src = Array.concat runs in
  let stride = 2 and k = List.length runs in
  let bounds = Array.make (k * stride) 0 in
  let off = ref 0 in
  List.iteri
    (fun i r ->
      bounds.(i * stride) <- !off;
      off := !off + Array.length r;
      bounds.((i * stride) + 1) <- !off)
    runs;
  let dst = Array.make (Array.length src) 0. in
  let mg = Merge.merger ~k in
  let len =
    Merge.k_way_strided mg ~src ~bounds ~runs:k ~stride ~off:0 ~dst ~dst_lo:0
  in
  checki "merged length" (Array.length src) len;
  let sorted = Array.copy src in
  Array.sort Float.compare sorted;
  checkb "matches the sort" true (bits_equal sorted dst);
  (* Reusing the merger must not leak state between calls. *)
  let len2 =
    Merge.k_way_strided mg ~src ~bounds ~runs:k ~stride ~off:0 ~dst ~dst_lo:0
  in
  checki "reused merger" len len2;
  checkb "same output" true (bits_equal sorted dst)

let test_k_way_strided_edges () =
  let mg = Merge.merger ~k:3 in
  let dst = Array.make 4 nan in
  let len =
    Merge.k_way_strided mg ~src:[||] ~bounds:[| 0; 0; 0; 0; 0; 0 |] ~runs:3
      ~stride:2 ~off:0 ~dst ~dst_lo:0
  in
  checki "all runs empty" 0 len;
  let len =
    Merge.k_way_strided mg ~src:[| 5. |] ~bounds:[| 0; 0; 0; 1; 1; 1 |] ~runs:3
      ~stride:2 ~off:0 ~dst ~dst_lo:2
  in
  checki "single element" 1 len;
  Alcotest.(check (float 0.)) "landed at dst_lo" 5. dst.(2);
  checkb "merger too small raises" true
    (match
       Merge.k_way_strided (Merge.merger ~k:1) ~src:[||] ~bounds:[| 0; 0; 0; 0 |]
         ~runs:2 ~stride:2 ~off:0 ~dst ~dst_lo:0
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- byte-identity of the flat pipelines ------------------------------- *)

let reference_sorted keys =
  let r = Array.copy keys in
  Array.sort Float.compare r;
  r

let boundary_shapes p =
  (* n = 0 and 1, n < p, n = p, non-multiples of any block/chunk size,
     plus a larger shape with duplicates. *)
  [ 0; 1; p - 1; p; (7 * p) + 3; 1009 ]

let test_psrs_byte_identical () =
  let rng = Rng.create ~seed:41 () in
  let p = 8 in
  List.iter
    (fun n ->
      let keys = Array.init n (fun i -> if i mod 5 = 0 then 0.5 else Rng.float rng) in
      let result = Sortlib.Psrs.sort keys ~p in
      checkb
        (Printf.sprintf "psrs n=%d" n)
        true
        (bits_equal (reference_sorted keys) result.Sortlib.Psrs.sorted))
    (boundary_shapes p)

let test_histogram_byte_identical () =
  let rng = Rng.create ~seed:42 () in
  let p = 8 in
  List.iter
    (fun n ->
      if n > 0 then begin
        let keys = Array.init n (fun _ -> Rng.float rng) in
        let sorted = Sortlib.Histogram_sort.sort keys ~p in
        checkb
          (Printf.sprintf "histogram n=%d" n)
          true
          (bits_equal (reference_sorted keys) sorted)
      end)
    (boundary_shapes p)

let test_sample_sort_byte_identical () =
  let p = 8 in
  List.iter
    (fun n ->
      let rng = Rng.create ~seed:43 () in
      let keys =
        let r = Rng.create ~seed:44 () in
        Array.init n (fun _ -> Rng.float r)
      in
      let sorted = Sortlib.Multicore.sort ~domains:1 ~s:4 rng keys ~p in
      checkb
        (Printf.sprintf "sample n=%d" n)
        true
        (bits_equal (reference_sorted keys) sorted))
    (boundary_shapes p)

let test_multicore_byte_identical_across_domains () =
  let keys =
    let r = Rng.create ~seed:45 () in
    Array.init 5000 (fun _ -> Rng.float r)
  in
  let expected = reference_sorted keys in
  List.iter
    (fun domains ->
      let out =
        Sortlib.Multicore.sort ~domains (Rng.create ~seed:46 ()) keys ~p:8
      in
      checkb (Printf.sprintf "%d domains" domains) true (bits_equal expected out))
    [ 1; 2; 4 ]

(* --- allocation ratchet proofs ----------------------------------------- *)

let minor_words_of f =
  ignore (f ());
  (* warm: spans, lazies *)
  let before = Gc.minor_words () in
  ignore (f ());
  Gc.minor_words () -. before

let test_psrs_allocates_o_p2 () =
  let n = 50_000 and p = 16 in
  let keys =
    let r = Rng.create ~seed:47 () in
    Array.init n (fun _ -> Rng.float r)
  in
  let words = minor_words_of (fun () -> Sortlib.Psrs.sort keys ~p) in
  (* The array-of-arrays predecessor spent ~100 words per key here; the
     flat pipeline's auxiliary state is O(p^2), far below n / 4. *)
  checkb
    (Printf.sprintf "psrs minor words %.0f < %d" words (n / 4))
    true
    (words < float_of_int (n / 4))

let test_histogram_splitters_allocate_o_p () =
  let n = 50_000 and p = 16 in
  let keys =
    let r = Rng.create ~seed:48 () in
    Array.init n (fun _ -> Rng.float r)
  in
  let words =
    minor_words_of (fun () -> Sortlib.Histogram_sort.splitters keys ~p)
  in
  checkb
    (Printf.sprintf "splitter minor words %.0f < %d" words (n / 4))
    true
    (words < float_of_int (n / 4))

let test_strided_merge_zero_alloc () =
  let n = 10_000 in
  let k = 8 in
  let src =
    let r = Rng.create ~seed:49 () in
    Array.init n (fun _ -> Rng.float r)
  in
  let stride = 2 in
  let bounds = Array.make (k * stride) 0 in
  let per = n / k in
  for i = 0 to k - 1 do
    bounds.(i * stride) <- i * per;
    bounds.((i * stride) + 1) <- (i + 1) * per;
    Kernels.Seg_sort.sort_floats src ~lo:(i * per) ~len:per
  done;
  let dst = Array.make n 0. in
  let mg = Merge.merger ~k in
  let words =
    minor_words_of (fun () ->
        Merge.k_way_strided mg ~src ~bounds ~runs:k ~stride ~off:0 ~dst ~dst_lo:0)
  in
  checkb
    (Printf.sprintf "merge minor words %.0f < 256" words)
    true (words < 256.)

let suites =
  [
    ( "fbuf",
      [
        Alcotest.test_case "create" `Quick test_fbuf_create;
        Alcotest.test_case "get/set" `Quick test_fbuf_get_set;
      ] );
    ( "flat sort overhaul",
      [
        Alcotest.test_case "strided merge matches sort" `Quick
          test_k_way_strided_matches_sort;
        Alcotest.test_case "strided merge edges" `Quick test_k_way_strided_edges;
        Alcotest.test_case "psrs byte-identical" `Quick test_psrs_byte_identical;
        Alcotest.test_case "histogram byte-identical" `Quick
          test_histogram_byte_identical;
        Alcotest.test_case "sample sort byte-identical" `Quick
          test_sample_sort_byte_identical;
        Alcotest.test_case "multicore byte-identical across domains" `Quick
          test_multicore_byte_identical_across_domains;
        Alcotest.test_case "psrs allocates O(p^2)" `Quick test_psrs_allocates_o_p2;
        Alcotest.test_case "histogram splitters allocate O(p)" `Quick
          test_histogram_splitters_allocate_o_p;
        Alcotest.test_case "strided merge zero-alloc" `Quick
          test_strided_merge_zero_alloc;
      ] );
  ]
