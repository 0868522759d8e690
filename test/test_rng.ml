(* PRNG and distribution tests. *)

module Rng = Numerics.Rng
module Distributions = Numerics.Distributions

let check = Alcotest.check
let checkb = Alcotest.(check bool)

let test_determinism () =
  let a = Rng.create ~seed:42 () in
  let b = Rng.create ~seed:42 () in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create ~seed:1 () in
  let b = Rng.create ~seed:2 () in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  checkb "different seeds diverge" true (!same < 4)

let test_copy_independence () =
  let a = Rng.create ~seed:7 () in
  let b = Rng.copy a in
  let va = Rng.int64 a in
  let vb = Rng.int64 b in
  check Alcotest.int64 "copy replays" va vb;
  ignore (Rng.int64 a);
  ignore (Rng.int64 a);
  let _ = Rng.int64 b in
  ()

let test_split_diverges () =
  let a = Rng.create ~seed:7 () in
  let b = Rng.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  checkb "split streams diverge" true (!same < 4)

let test_float_range () =
  let rng = Rng.create ~seed:3 () in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    checkb "float in [0,1)" true (x >= 0. && x < 1.)
  done

let test_float_mean () =
  let rng = Rng.create ~seed:5 () in
  let xs = Array.init 50_000 (fun _ -> Rng.float rng) in
  let mean = Numerics.Stats.mean xs in
  checkb "uniform mean near 0.5" true (Float.abs (mean -. 0.5) < 0.01)

let test_int_bounds () =
  let rng = Rng.create ~seed:9 () in
  for _ = 1 to 10_000 do
    let x = Rng.int rng 7 in
    checkb "int in [0,7)" true (x >= 0 && x < 7)
  done

let test_int_coverage () =
  let rng = Rng.create ~seed:11 () in
  let seen = Array.make 7 false in
  for _ = 1 to 1_000 do
    seen.(Rng.int rng 7) <- true
  done;
  checkb "all residues reached" true (Array.for_all Fun.id seen)

let test_shuffle_permutation () =
  let rng = Rng.create ~seed:13 () in
  let a = Array.init 100 Fun.id in
  let shuffled = Array.copy a in
  Rng.shuffle rng shuffled;
  let sorted = Array.copy shuffled in
  Array.sort compare sorted;
  check Alcotest.(array int) "shuffle is a permutation" a sorted

let test_gaussian_moments () =
  let rng = Rng.create ~seed:15 () in
  let xs = Array.init 50_000 (fun _ -> Distributions.gaussian rng ~mu:2. ~sigma:3.) in
  checkb "gaussian mean" true (Float.abs (Numerics.Stats.mean xs -. 2.) < 0.08);
  checkb "gaussian sd" true (Float.abs (Numerics.Stats.stddev xs -. 3.) < 0.1)

let test_lognormal_positive () =
  let rng = Rng.create ~seed:17 () in
  for _ = 1 to 1_000 do
    checkb "lognormal > 0" true (Distributions.lognormal rng ~mu:0. ~sigma:1. > 0.)
  done

let test_lognormal_median () =
  let rng = Rng.create ~seed:19 () in
  let xs = Array.init 50_000 (fun _ -> Distributions.lognormal rng ~mu:0. ~sigma:1.) in
  (* The median of lognormal(0,1) is exp(0) = 1. *)
  Array.sort Float.compare xs;
  checkb "lognormal median near 1" true (Float.abs (xs.(25_000) -. 1.) < 0.05)

let test_pareto_support () =
  let rng = Rng.create ~seed:23 () in
  for _ = 1 to 1_000 do
    checkb "pareto >= scale" true (Distributions.pareto rng ~scale:2. ~shape:1.5 >= 2.)
  done

let qcheck_int_bound =
  QCheck.Test.make ~name:"Rng.int always within bound" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Rng.create ~seed () in
      let x = Rng.int rng bound in
      x >= 0 && x < bound)

let qcheck_uniform_bounds =
  QCheck.Test.make ~name:"Rng.uniform within [lo,hi)" ~count:500
    QCheck.(triple small_int (float_range (-1000.) 1000.) (float_range 0.001 1000.))
    (fun (seed, lo, width) ->
      let rng = Rng.create ~seed () in
      let x = Rng.uniform rng lo (lo +. width) in
      x >= lo && x < lo +. width)

let suites =
  [
    ( "rng",
      [
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
        Alcotest.test_case "copy replays stream" `Quick test_copy_independence;
        Alcotest.test_case "split diverges" `Quick test_split_diverges;
        Alcotest.test_case "float in range" `Quick test_float_range;
        Alcotest.test_case "float mean" `Quick test_float_mean;
        Alcotest.test_case "int bounds" `Quick test_int_bounds;
        Alcotest.test_case "int coverage" `Quick test_int_coverage;
        Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutation;
        QCheck_alcotest.to_alcotest qcheck_int_bound;
        QCheck_alcotest.to_alcotest qcheck_uniform_bounds;
      ] );
    ( "distributions",
      [
        Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
        Alcotest.test_case "lognormal positive" `Quick test_lognormal_positive;
        Alcotest.test_case "lognormal median" `Quick test_lognormal_median;
        Alcotest.test_case "pareto support" `Quick test_pareto_support;
      ] );
  ]
