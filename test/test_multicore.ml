(* Multicore execution (OCaml 5 domains): determinism and correctness
   regardless of the domain count. *)

module Parallel = Numerics.Parallel
module Multicore = Sortlib.Multicore
module Parallel_matmul = Linalg.Parallel_matmul
module Matrix = Linalg.Matrix
module Rng = Numerics.Rng

let checkb = Alcotest.(check bool)

let test_parallel_for_covers () =
  let n = 1000 in
  let hits = Array.make n 0 in
  Parallel.parallel_for ~domains:4 n (fun i -> hits.(i) <- hits.(i) + 1);
  checkb "each index exactly once" true (Array.for_all (fun h -> h = 1) hits)

let test_parallel_for_sequential_fallback () =
  let n = 10 in
  let hits = Array.make n 0 in
  Parallel.parallel_for ~domains:1 n (fun i -> hits.(i) <- hits.(i) + 1);
  checkb "sequential covers" true (Array.for_all (fun h -> h = 1) hits)

let test_parallel_for_empty () =
  Parallel.parallel_for ~domains:4 0 (fun _ -> Alcotest.fail "no indices expected")

let test_parallel_map () =
  let a = Array.init 257 (fun i -> i) in
  let pool = Exec.Pool.get_global ~at_least:3 () in
  let doubled = Exec.Pool.parallel_map_array ~workers:3 pool (fun x -> 2 * x) a in
  Alcotest.(check (array int)) "map" (Array.map (fun x -> 2 * x) a) doubled

let test_parallel_map_empty () =
  Alcotest.(check (array int)) "empty map" [||]
    (Exec.Pool.parallel_map_array ~workers:2 (Exec.Pool.get_global ~at_least:2 ()) (fun x -> x)
       [||])

let test_multicore_sort_correct () =
  let rng = Rng.create ~seed:121 () in
  let keys = Array.init 50_000 (fun _ -> Rng.float rng) in
  let reference = Array.copy keys in
  Array.sort Float.compare reference;
  List.iter
    (fun domains ->
      let out = Multicore.sort ~domains (Rng.create ~seed:5 ()) keys ~p:8 in
      Alcotest.(check (array (float 0.)))
        (Printf.sprintf "%d domains" domains)
        reference out)
    [ 1; 2; 4 ]

let test_multicore_sort_deterministic () =
  let rng = Rng.create ~seed:122 () in
  let keys = Array.init 10_000 (fun _ -> Rng.float rng) in
  let run domains = Multicore.sort ~domains (Rng.create ~seed:9 ()) keys ~p:6 in
  Alcotest.(check (array (float 0.))) "domain count does not change output" (run 1) (run 4)

let test_multicore_speedup_runs () =
  let seq, par, speedup = Multicore.speedup ~domains:2 (Rng.create ~seed:123 ()) ~n:50_000 ~p:4 in
  checkb "times positive" true (seq > 0. && par > 0. && speedup > 0.)

let test_parallel_matmul_correct () =
  let rng = Rng.create ~seed:124 () in
  let a = Matrix.random rng ~rows:37 ~cols:23 in
  let b = Matrix.random rng ~rows:23 ~cols:31 in
  List.iter
    (fun domains ->
      checkb
        (Printf.sprintf "%d domains" domains)
        true
        (Matrix.approx_equal (Parallel_matmul.multiply ~domains a b) (Matrix.mul a b)))
    [ 1; 2; 4 ]

let test_heterogeneous_bands () =
  let star = Platform.Star.of_speeds [ 1.; 3. ] in
  Alcotest.(check (array int)) "1:3 split of 100 rows" [| 25; 75 |]
    (Parallel_matmul.heterogeneous_bands star ~rows:100)

let qcheck_parallel_matmul =
  QCheck.Test.make ~name:"parallel matmul equals sequential" ~count:20
    QCheck.(pair (int_range 1 20) (int_range 1 4))
    (fun (n, domains) ->
      let rng = Rng.create ~seed:n () in
      let a = Matrix.random rng ~rows:n ~cols:n in
      let b = Matrix.random rng ~rows:n ~cols:n in
      Matrix.approx_equal (Parallel_matmul.multiply ~domains a b) (Matrix.mul a b))

let suites =
  [
    ( "multicore",
      [
        Alcotest.test_case "parallel_for covers" `Quick test_parallel_for_covers;
        Alcotest.test_case "sequential fallback" `Quick test_parallel_for_sequential_fallback;
        Alcotest.test_case "empty range" `Quick test_parallel_for_empty;
        Alcotest.test_case "parallel map" `Quick test_parallel_map;
        Alcotest.test_case "empty map" `Quick test_parallel_map_empty;
        Alcotest.test_case "multicore sort correct" `Quick test_multicore_sort_correct;
        Alcotest.test_case "multicore sort deterministic" `Quick
          test_multicore_sort_deterministic;
        Alcotest.test_case "speedup harness runs" `Quick test_multicore_speedup_runs;
        Alcotest.test_case "parallel matmul" `Quick test_parallel_matmul_correct;
        Alcotest.test_case "heterogeneous bands" `Quick test_heterogeneous_bands;
        QCheck_alcotest.to_alcotest qcheck_parallel_matmul;
      ] );
  ]
