(* K-way merge: [Merge.k_way_strided] on runs laid out one after the
   other (stride 1), against the sort of their concatenation. *)

module Merge = Sortlib.Merge

let merge runs =
  let k = List.length runs in
  let src = Array.concat runs in
  let bounds = Array.make (k + 1) 0 in
  List.iteri (fun i r -> bounds.(i + 1) <- bounds.(i) + Array.length r) runs;
  let dst = Array.make (Array.length src) 0. in
  let len =
    Merge.k_way_strided (Merge.merger ~k:(max 1 k)) ~src ~bounds ~runs:k ~stride:1
      ~off:0 ~dst ~dst_lo:0
  in
  Alcotest.(check int) "merged length" (Array.length src) len;
  dst

let test_k_way_basic () =
  Alcotest.(check (array (float 0.))) "three runs" [| 0.; 1.; 2.; 3.; 4.; 5. |]
    (merge [ [| 0.; 3. |]; [| 1.; 4. |]; [| 2.; 5. |] ])

let test_k_way_edges () =
  Alcotest.(check (array (float 0.))) "no runs" [||] (merge []);
  Alcotest.(check (array (float 0.))) "all empty" [||] (merge [ [||]; [||] ]);
  Alcotest.(check (array (float 0.))) "single run" [| 1.; 2. |] (merge [ [| 1.; 2. |] ])

let qcheck_k_way =
  QCheck.Test.make ~name:"k-way merge equals sort of concatenation" ~count:200
    QCheck.(
      list_of_size Gen.(int_range 0 8)
        (array_of_size Gen.(int_range 0 50) (float_range (-100.) 100.)))
    (fun raw ->
      let runs = List.map (fun r -> Array.sort Float.compare r; r) raw in
      let merged = merge runs in
      let reference = Array.concat runs in
      Array.sort Float.compare reference;
      merged = reference)

let qcheck_k_way_stays_sorted =
  QCheck.Test.make ~name:"k-way output is sorted" ~count:200
    QCheck.(
      list_of_size Gen.(int_range 1 6)
        (array_of_size Gen.(int_range 1 100) (float_range 0. 1.)))
    (fun raw ->
      let runs = List.map (fun r -> Array.sort Float.compare r; r) raw in
      let merged = merge runs in
      let sorted = ref true in
      for i = 0 to Array.length merged - 2 do
        if merged.(i) > merged.(i + 1) then sorted := false
      done;
      !sorted)

let suites =
  [
    ( "k-way merge",
      [
        Alcotest.test_case "k-way basic" `Quick test_k_way_basic;
        Alcotest.test_case "edges" `Quick test_k_way_edges;
        QCheck_alcotest.to_alcotest qcheck_k_way;
        QCheck_alcotest.to_alcotest qcheck_k_way_stays_sorted;
      ] );
  ]
