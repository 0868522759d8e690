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

let test_fbuf_idx () =
  checki "row-major" 7 (Fbuf.idx ~cols:3 2 1);
  checki "origin" 0 (Fbuf.idx ~cols:9 0 0)

let test_fbuf_roundtrip () =
  let a = [| 1.5; -0.; Float.max_float; 3e-300 |] in
  let b = Fbuf.of_array a in
  checkb "to_array bitwise" true (bits_equal a (Fbuf.to_array b));
  let c = Fbuf.copy b in
  Fbuf.set c 0 99.;
  Alcotest.(check (float 0.)) "copy is independent" 1.5 (Fbuf.get b 0)

let test_fbuf_init () =
  let b = Fbuf.init 4 (fun i -> float_of_int (i * i)) in
  checkb "init values" true (bits_equal [| 0.; 1.; 4.; 9. |] (Fbuf.to_array b))

let test_fbuf_blit () =
  let src = Fbuf.of_array [| 1.; 2.; 3.; 4.; 5. |] in
  let dst = Fbuf.create 5 in
  Fbuf.blit ~src ~src_pos:1 ~dst ~dst_pos:0 ~len:3;
  checkb "plain blit" true
    (bits_equal [| 2.; 3.; 4.; 0.; 0. |] (Fbuf.to_array dst));
  Fbuf.blit ~src ~src_pos:0 ~dst:src ~dst_pos:0 ~len:5;
  checkb "self blit is identity" true
    (bits_equal [| 1.; 2.; 3.; 4.; 5. |] (Fbuf.to_array src));
  (* Overlapping within one buffer, both directions. *)
  let f = Fbuf.of_array [| 1.; 2.; 3.; 4.; 5. |] in
  Fbuf.blit ~src:f ~src_pos:0 ~dst:f ~dst_pos:2 ~len:3;
  checkb "overlap shift right" true
    (bits_equal [| 1.; 2.; 1.; 2.; 3. |] (Fbuf.to_array f));
  let g = Fbuf.of_array [| 1.; 2.; 3.; 4.; 5. |] in
  Fbuf.blit ~src:g ~src_pos:2 ~dst:g ~dst_pos:0 ~len:3;
  checkb "overlap shift left" true
    (bits_equal [| 3.; 4.; 5.; 4.; 5. |] (Fbuf.to_array g));
  Fbuf.blit ~src:g ~src_pos:0 ~dst:g ~dst_pos:5 ~len:0;
  Alcotest.check_raises "range checked"
    (Invalid_argument "Fbuf.blit: range out of bounds") (fun () ->
      Fbuf.blit ~src:g ~src_pos:3 ~dst:g ~dst_pos:0 ~len:3)

let test_fbuf_equal_bitwise () =
  let nan_buf () = Fbuf.of_array [| Float.nan; 1. |] in
  checkb "NaN equals itself" true (Fbuf.equal (nan_buf ()) (nan_buf ()));
  checkb "0. <> -0." false
    (Fbuf.equal (Fbuf.of_array [| 0. |]) (Fbuf.of_array [| -0. |]));
  checkb "length mismatch" false (Fbuf.equal (Fbuf.create 1) (Fbuf.create 2));
  checkb "empty equal" true (Fbuf.equal (Fbuf.create 0) (Fbuf.create 0))

let qcheck_fbuf_roundtrip =
  QCheck.Test.make ~name:"of_array/to_array is bitwise identity" ~count:200
    QCheck.(array_of_size Gen.(int_range 0 80) (float_range (-1e6) 1e6))
    (fun a -> bits_equal a (Fbuf.to_array (Fbuf.of_array a)))

(* --- strided merge ----------------------------------------------------- *)

let test_k_way_strided_matches_k_way () =
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
  checkb "matches k_way" true (bits_equal (Merge.k_way runs) dst);
  (* Reusing the merger must not leak state between calls. *)
  let len2 =
    Merge.k_way_strided mg ~src ~bounds ~runs:k ~stride ~off:0 ~dst ~dst_lo:0
  in
  checki "reused merger" len len2;
  checkb "same output" true (bits_equal (Merge.k_way runs) dst)

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
        Alcotest.test_case "idx" `Quick test_fbuf_idx;
        Alcotest.test_case "roundtrip" `Quick test_fbuf_roundtrip;
        Alcotest.test_case "init" `Quick test_fbuf_init;
        Alcotest.test_case "blit" `Quick test_fbuf_blit;
        Alcotest.test_case "bitwise equal" `Quick test_fbuf_equal_bitwise;
        QCheck_alcotest.to_alcotest qcheck_fbuf_roundtrip;
      ] );
    ( "flat sort overhaul",
      [
        Alcotest.test_case "strided merge matches k_way" `Quick
          test_k_way_strided_matches_k_way;
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
