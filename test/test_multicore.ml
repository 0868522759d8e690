(* Multicore execution (OCaml 5 domains): determinism and correctness
   regardless of the domain count. *)

module Parallel = Numerics.Parallel
module Multicore = Sortlib.Multicore
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

(* NaN-free keys with both zeros, both infinities, subnormals, extremes
   and many duplicates.  The scatter routes [-0.] and [0.] to the same
   bucket and the segment kernel orders [-0.] first, so the output is the
   same bit sequence at every [p] and domain count, [p = 1] included. *)
let test_multicore_sort_bit_identical_any_p () =
  let rng = Rng.create ~seed:125 () in
  let specials =
    [|
      0.; -0.; infinity; neg_infinity; 4.9e-324; -4.9e-324; 2.225073858507201e-308;
      -2.225073858507201e-308; Float.min_float; max_float; -.max_float; 1.; -1.;
    |]
  in
  let keys =
    Array.init 6_000 (fun i ->
        match i mod 3 with
        | 0 -> specials.(Rng.int rng (Array.length specials))
        | 1 -> Float.round (Rng.uniform rng (-20.) 20.)
        | _ -> Rng.uniform rng (-1e6) 1e6)
  in
  let bits a = Array.map Int64.bits_of_float a in
  let expected =
    let a = Array.copy keys in
    Array.sort
      (fun x y ->
        match Float.compare x y with 0 -> compare (Float.sign_bit y) (Float.sign_bit x) | c -> c)
      a;
    bits a
  in
  List.iter
    (fun p ->
      List.iter
        (fun domains ->
          Alcotest.(check (array int64))
            (Printf.sprintf "p=%d, %d domains" p domains)
            expected
            (bits (Multicore.sort ~domains (Rng.create ~seed:7 ()) keys ~p)))
        [ 1; 2; 3; 4 ])
    [ 1; 2; 16; 64 ]

let test_multicore_speedup_runs () =
  let seq, par, speedup = Multicore.speedup ~domains:2 (Rng.create ~seed:123 ()) ~n:50_000 ~p:4 in
  checkb "times positive" true (seq > 0. && par > 0. && speedup > 0.)

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
        Alcotest.test_case "multicore sort bit-identical at any p" `Quick
          test_multicore_sort_bit_identical_any_p;
        Alcotest.test_case "speedup harness runs" `Quick test_multicore_speedup_runs;
      ] );
  ]
