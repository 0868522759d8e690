(* Special functions, confidence intervals. *)

module Special = Numerics.Special
module Confidence = Numerics.Confidence
module Rng = Numerics.Rng
module Stats = Numerics.Stats

let checkb = Alcotest.(check bool)
let checkf msg ?(eps = 1e-6) expected actual =
  Alcotest.(check (float eps)) msg expected actual

let test_erf_values () =
  checkf "erf 0" 0. (Special.erf 0.);
  checkf "erf 1" ~eps:2e-7 0.8427007929 (Special.erf 1.);
  checkf "erf -1" ~eps:2e-7 (-0.8427007929) (Special.erf (-1.));
  checkf "erf 3 ~ 1" ~eps:1e-4 1. (Special.erf 3.)

let test_normal_cdf () =
  checkf "Phi(0)" 0.5 (Special.normal_cdf 0.);
  checkf "Phi(1.96)" ~eps:1e-4 0.975 (Special.normal_cdf 1.96);
  checkf "scaled" ~eps:1e-7 (Special.normal_cdf 1.) (Special.normal_cdf ~mu:10. ~sigma:2. 12.)

let test_normal_quantile_roundtrip () =
  List.iter
    (fun p -> checkf "quantile roundtrip" ~eps:1e-6 p (Special.normal_cdf (Special.normal_quantile p)))
    [ 0.001; 0.025; 0.31; 0.5; 0.8; 0.975; 0.999 ]

let test_normal_quantile_known () =
  checkf "z(0.975)" ~eps:1e-4 1.959964 (Special.normal_quantile 0.975);
  checkf "z(0.5)" ~eps:1e-7 0. (Special.normal_quantile 0.5)

let test_quantile_domain () =
  checkb "p=0 rejected" true
    (try
       ignore (Special.normal_quantile 0.);
       false
     with Invalid_argument _ -> true)

let contains (ci : Confidence.interval) x = ci.Confidence.lo <= x && x <= ci.Confidence.hi

let test_confidence_basic () =
  let rng = Rng.create ~seed:131 () in
  let samples = Array.init 1_000 (fun _ -> Numerics.Distributions.gaussian rng ~mu:5. ~sigma:2.) in
  let ci = Confidence.of_summary (Stats.summarize samples) in
  checkb "contains true mean" true (contains ci 5.);
  checkb "narrow at n=1000" true (ci.Confidence.hi -. ci.Confidence.lo < 0.5)

let test_confidence_coverage () =
  (* ~95% of intervals should cover the true mean. *)
  let rng = Rng.create ~seed:132 () in
  let covered = ref 0 in
  let trials = 300 in
  for _ = 1 to trials do
    let samples = Array.init 50 (fun _ -> Numerics.Distributions.gaussian rng ~mu:0. ~sigma:1.) in
    if contains (Confidence.of_summary (Stats.summarize samples)) 0. then incr covered
  done;
  let rate = float_of_int !covered /. float_of_int trials in
  checkb "coverage near 95%" true (rate > 0.88 && rate <= 1.)

let test_confidence_level_effect () =
  let samples = Array.init 100 float_of_int in
  let narrow = Confidence.of_summary ~level:0.5 (Stats.summarize samples) in
  let wide = Confidence.of_summary ~level:0.99 (Stats.summarize samples) in
  checkb "higher level, wider interval" true
    (wide.Confidence.hi -. wide.Confidence.lo > narrow.Confidence.hi -. narrow.Confidence.lo)

let test_confidence_validation () =
  checkb "n=1 rejected" true
    (try
       ignore (Confidence.of_summary (Stats.summarize [| 1. |]));
       false
     with Invalid_argument _ -> true)

let suites =
  [
    ( "special functions",
      [
        Alcotest.test_case "erf" `Quick test_erf_values;
        Alcotest.test_case "normal cdf" `Quick test_normal_cdf;
        Alcotest.test_case "quantile roundtrip" `Quick test_normal_quantile_roundtrip;
        Alcotest.test_case "quantile known" `Quick test_normal_quantile_known;
        Alcotest.test_case "quantile domain" `Quick test_quantile_domain;
      ] );
    ( "confidence intervals",
      [
        Alcotest.test_case "basic" `Quick test_confidence_basic;
        Alcotest.test_case "coverage" `Quick test_confidence_coverage;
        Alcotest.test_case "level effect" `Quick test_confidence_level_effect;
        Alcotest.test_case "validation" `Quick test_confidence_validation;
      ] );
  ]
