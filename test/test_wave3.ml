(* Exhaustive column-partition validation, polynomial multiplication,
   and steady-state throughput. *)

module Column_partition = Partition.Column_partition
module Poly = Linalg.Poly
module Zone = Linalg.Zone
module Steady_state = Dlt.Steady_state
module Star = Platform.Star
module Rng = Numerics.Rng

let checkb = Alcotest.(check bool)
let checkf msg ?(eps = 1e-9) expected actual =
  Alcotest.(check (float eps)) msg expected actual

(* --- exhaustive vs DP --- *)

let random_areas rng p =
  let raw = Array.init p (fun _ -> Rng.uniform rng 0.02 1.) in
  let total = Numerics.Kahan.sum raw in
  Array.map (fun a -> a /. total) raw

let test_dp_matches_exhaustive_peri_sum () =
  (* The structure theorem: contiguous-sorted columns lose nothing.  The
     DP must equal the exhaustive optimum over ALL set partitions. *)
  let rng = Rng.create ~seed:71 () in
  for _ = 1 to 40 do
    let p = 1 + Rng.int rng 7 in
    let areas = random_areas rng p in
    let dp = (Column_partition.peri_sum ~areas).Column_partition.cost in
    let exact = Exact.peri_sum_cost ~areas in
    checkf "DP = exhaustive (PERI-SUM)" ~eps:1e-9 exact dp
  done

let test_dp_close_to_exhaustive_peri_max () =
  (* Contiguity is NOT guaranteed for the min-max objective: the DP is a
     heuristic over the contiguous-sorted class.  It must never beat the
     exhaustive optimum and stays within a few percent in practice
     (worst observed gap 1.8% over 200 random instances). *)
  let rng = Rng.create ~seed:72 () in
  for _ = 1 to 40 do
    let p = 1 + Rng.int rng 7 in
    let areas = random_areas rng p in
    let dp = (Column_partition.peri_max ~areas).Column_partition.cost in
    let exact = Exact.peri_max_cost ~areas in
    checkb "DP >= exhaustive" true (dp >= exact -. 1e-9);
    checkb "DP within 5% of exhaustive" true (dp <= 1.05 *. exact)
  done

let test_exact_size_guard () =
  checkb "too many areas rejected" true
    (try
       ignore (Exact.peri_sum_cost ~areas:(Array.make 11 (1. /. 11.)));
       false
     with Invalid_argument _ -> true)

(* --- polynomial multiplication --- *)

let test_schoolbook_known () =
  (* (1 + 2x)(3 + x) = 3 + 7x + 2x². *)
  Alcotest.(check (array (float 1e-12)))
    "known product" [| 3.; 7.; 2. |]
    (Poly.schoolbook [| 1.; 2. |] [| 3.; 1. |])

let test_schoolbook_degrees () =
  let result = Poly.schoolbook (Array.make 5 1.) (Array.make 3 1.) in
  Alcotest.(check int) "degree" 7 (Array.length result)

let test_karatsuba_matches_schoolbook () =
  let rng = Rng.create ~seed:73 () in
  let a = Array.init 257 (fun _ -> Rng.uniform rng (-1.) 1.) in
  let b = Array.init 257 (fun _ -> Rng.uniform rng (-1.) 1.) in
  let reference = Poly.schoolbook a b in
  let fast = Poly.karatsuba ~cutoff:8 a b in
  Alcotest.(check int) "same length" (Array.length reference) (Array.length fast);
  Array.iteri (fun i v -> checkf "coefficient" ~eps:1e-7 v fast.(i)) reference

let qcheck_karatsuba =
  QCheck.Test.make ~name:"karatsuba equals schoolbook" ~count:50
    QCheck.(pair (int_range 1 96) small_int)
    (fun (n, seed) ->
      let rng = Rng.create ~seed () in
      let a = Array.init n (fun _ -> Rng.uniform rng (-2.) 2.) in
      let b = Array.init n (fun _ -> Rng.uniform rng (-2.) 2.) in
      let reference = Poly.schoolbook a b in
      let fast = Poly.karatsuba ~cutoff:4 a b in
      Array.for_all2 (fun x y -> Float.abs (x -. y) < 1e-6) reference fast)

let test_distributed_poly_correct () =
  let rng = Rng.create ~seed:74 () in
  let n = 48 in
  let a = Array.init n (fun _ -> Rng.uniform rng (-1.) 1.) in
  let b = Array.init n (fun _ -> Rng.uniform rng (-1.) 1.) in
  let star = Star.of_speeds [ 1.; 2.; 5. ] in
  let zones = Zone.for_platform star ~n in
  let stats = Poly.distributed ~zones a b in
  let reference = Poly.schoolbook a b in
  Array.iteri (fun i v -> checkf "coefficient" ~eps:1e-9 v stats.Poly.result.(i)) reference;
  Alcotest.(check int) "comm = half perimeters" (Zone.half_perimeter_sum zones)
    stats.Poly.total

let test_distributed_poly_rejects_bad_zones () =
  checkb "bad tiling rejected" true
    (try
       ignore
         (Poly.distributed
            ~zones:[| { Zone.row0 = 0; rows = 2; col0 = 0; cols = 4 } |]
            [| 1.; 2.; 3.; 4. |] [| 1.; 2.; 3.; 4. |]);
       false
     with Invalid_argument _ -> true)

(* --- steady state --- *)

let test_parallel_throughput () =
  (* speeds 1,2,4 with bandwidth 3: rates min(s,bw) = 1,2,3. *)
  let star = Star.of_speeds ~bandwidth:3. [ 1.; 2.; 4. ] in
  let sol = Steady_state.parallel star in
  checkf "throughput" 6. sol.Steady_state.throughput

let test_one_port_compute_bound () =
  (* Huge bandwidth: the port is no constraint and throughput = Σs. *)
  let star = Star.of_speeds ~bandwidth:1e9 [ 1.; 2.; 4. ] in
  let sol = Steady_state.one_port star in
  checkf "compute bound" ~eps:1e-6 7. sol.Steady_state.throughput;
  checkf "efficiency 1" ~eps:1e-6 1. (Steady_state.efficiency star)

let test_one_port_port_bound () =
  (* bandwidth 1 everywhere: the port serves at most 1 load/time. *)
  let star = Star.of_speeds ~bandwidth:1. [ 10.; 10.; 10. ] in
  let sol = Steady_state.one_port star in
  checkf "port bound" ~eps:1e-9 1. sol.Steady_state.throughput

let test_one_port_greedy_prefers_fast_links () =
  let star =
    Star.create
      [
        Platform.Processor.make ~id:1 ~speed:5. ~bandwidth:1. ();
        Platform.Processor.make ~id:2 ~speed:5. ~bandwidth:10. ();
      ]
  in
  let sol = Steady_state.one_port star in
  (* The bw=10 worker is saturated first (5 rate, 0.5 port), the rest
     of the port feeds the bw=1 worker (0.5 rate). *)
  let workers = Star.workers star in
  Array.iteri
    (fun i (proc : Platform.Processor.t) ->
      if proc.Platform.Processor.bandwidth = 10. then
        checkf "fast link saturated" 5. sol.Steady_state.rates.(i)
      else checkf "slow link gets leftover" 0.5 sol.Steady_state.rates.(i))
    workers;
  checkf "total" 5.5 sol.Steady_state.throughput

let qcheck_one_port_feasible =
  QCheck.Test.make ~name:"steady state: one-port solution is feasible and maximal-ish"
    ~count:200
    QCheck.(
      list_of_size Gen.(int_range 1 10) (pair (float_range 0.1 10.) (float_range 0.1 10.)))
    (fun specs ->
      QCheck.assume (specs <> []);
      let procs =
        List.map (fun (s, bw) -> Platform.Processor.make ~id:0 ~speed:s ~bandwidth:bw ()) specs
      in
      let star = Star.create procs in
      let sol = Steady_state.one_port star in
      let workers = Star.workers star in
      let port_use = ref 0. in
      let feasible = ref true in
      Array.iteri
        (fun i rate ->
          let proc = workers.(i) in
          if rate > proc.Platform.Processor.speed +. 1e-9 then feasible := false;
          port_use := !port_use +. (rate /. proc.Platform.Processor.bandwidth))
        sol.Steady_state.rates;
      (* Feasibility, and tightness: either the port is saturated or all
         workers are compute-saturated. *)
      let all_saturated =
        Array.for_all2
          (fun rate (proc : Platform.Processor.t) ->
            Float.abs (rate -. proc.Platform.Processor.speed) < 1e-9)
          sol.Steady_state.rates workers
      in
      !feasible && !port_use <= 1. +. 1e-9
      && (all_saturated || Float.abs (!port_use -. 1.) < 1e-9))

let suites =
  [
    ( "exhaustive column partition",
      [
        Alcotest.test_case "DP = exhaustive (PERI-SUM)" `Slow
          test_dp_matches_exhaustive_peri_sum;
        Alcotest.test_case "DP near exhaustive (PERI-MAX)" `Slow
          test_dp_close_to_exhaustive_peri_max;
        Alcotest.test_case "size guard" `Quick test_exact_size_guard;
      ] );
    ( "polynomial multiplication",
      [
        Alcotest.test_case "schoolbook known" `Quick test_schoolbook_known;
        Alcotest.test_case "degrees" `Quick test_schoolbook_degrees;
        Alcotest.test_case "karatsuba matches" `Quick test_karatsuba_matches_schoolbook;
        Alcotest.test_case "distributed correct" `Quick test_distributed_poly_correct;
        Alcotest.test_case "bad zones rejected" `Quick test_distributed_poly_rejects_bad_zones;
        QCheck_alcotest.to_alcotest qcheck_karatsuba;
      ] );
    ( "steady state",
      [
        Alcotest.test_case "parallel throughput" `Quick test_parallel_throughput;
        Alcotest.test_case "compute bound" `Quick test_one_port_compute_bound;
        Alcotest.test_case "port bound" `Quick test_one_port_port_bound;
        Alcotest.test_case "greedy link choice" `Quick test_one_port_greedy_prefers_fast_links;
        QCheck_alcotest.to_alcotest qcheck_one_port_feasible;
      ] );
  ]
