(* Statistics, compensated summation, root finding, apportionment,
   and the text-rendering helpers. *)

module Stats = Numerics.Stats
module Kahan = Numerics.Kahan
module Apportion = Numerics.Apportion

let checkb = Alcotest.(check bool)
let checkf msg ?(eps = 1e-9) expected actual =
  Alcotest.(check (float eps)) msg expected actual

(* --- Stats --- *)

let test_mean_basic () = checkf "mean" 2.5 (Stats.mean [| 1.; 2.; 3.; 4. |])

let test_variance_known () =
  checkf "sample variance" ~eps:1e-12 2.5 (Stats.variance [| 1.; 2.; 3.; 4.; 5. |])

let test_variance_constant () = checkf "constant variance" 0. (Stats.variance [| 3.; 3.; 3. |])
let test_variance_singleton () = checkf "singleton variance" 0. (Stats.variance [| 42. |])

let test_summary () =
  let s = Stats.summarize [| 5.; 1.; 3. |] in
  checkf "summary mean" 3. s.Stats.mean;
  checkf "summary min" 1. s.Stats.min;
  checkf "summary max" 5. s.Stats.max;
  Alcotest.(check int) "summary n" 3 s.Stats.n

let test_empty_raises () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty array") (fun () ->
      ignore (Stats.mean [||]))

let qcheck_mean_bounds =
  QCheck.Test.make ~name:"mean between min and max" ~count:200
    QCheck.(array_of_size Gen.(int_range 1 50) (float_range (-100.) 100.))
    (fun a ->
      let s = Stats.summarize a in
      s.Stats.min -. 1e-9 <= s.Stats.mean && s.Stats.mean <= s.Stats.max +. 1e-9)

(* --- Kahan --- *)

let test_kahan_catastrophic () =
  (* Naive summation loses the +1 entirely. *)
  checkf "compensated sum" 2. (Kahan.sum [| 1e16; 1.; -1e16; 1. |])

let test_kahan_small_series () =
  let n = 100_000 in
  let a = Array.make n 0.1 in
  checkf "0.1 * 1e5" ~eps:1e-9 10_000. (Kahan.sum a)

let test_kahan_incremental () =
  let t = Kahan.create () in
  List.iter (Kahan.add t) [ 1e16; 1.; -1e16; 1. ];
  checkf "incremental" 2. (Kahan.total t)

let test_kahan_sum_by () =
  checkf "sum_by squares" 14. (Kahan.sum_by (fun x -> x *. x) [| 1.; 2.; 3. |])

(* --- Roots --- *)

let test_bisect_sqrt2 () =
  let f x = (x *. x) -. 2. in
  checkf "bisect sqrt 2" ~eps:1e-9 (sqrt 2.) (Roots.bisect ~f ~lo:0. ~hi:2. ())

let test_brent_sqrt2 () =
  let f x = (x *. x) -. 2. in
  checkf "brent sqrt 2" ~eps:1e-9 (sqrt 2.) (Roots.brent ~f ~lo:0. ~hi:2. ())

let test_brent_transcendental () =
  (* Root of cos x - x (the Dottie number). *)
  let f x = cos x -. x in
  checkf "dottie" ~eps:1e-9 0.7390851332151607 (Roots.brent ~f ~lo:0. ~hi:1. ())

let test_no_bracket () =
  Alcotest.check_raises "no bracket" Roots.No_bracket (fun () ->
      ignore (Roots.brent ~f:(fun x -> (x *. x) +. 1.) ~lo:(-1.) ~hi:1. ()))

let test_newton_converges () =
  let f x = (x *. x) -. 2. in
  let df x = 2. *. x in
  match Roots.newton ~f ~df ~x0:1. () with
  | Some x -> checkf "newton sqrt 2" ~eps:1e-9 (sqrt 2.) x
  | None -> Alcotest.fail "newton failed to converge"

let test_newton_zero_derivative () =
  match Roots.newton ~f:(fun _ -> 1.) ~df:(fun _ -> 0.) ~x0:1. () with
  | Some _ -> Alcotest.fail "should not converge"
  | None -> ()

let test_expand_bracket () =
  let f x = x -. 100. in
  match Roots.expand_bracket ~f ~lo:0. ~hi:1. () with
  | Some (lo, hi) -> checkb "brackets" true (f lo *. f hi <= 0.)
  | None -> Alcotest.fail "expand_bracket failed"

let test_expand_bracket_none () =
  match Roots.expand_bracket ~f:(fun _ -> 1.) ~lo:0. ~hi:1. ~max_iter:8 () with
  | Some _ -> Alcotest.fail "no root exists"
  | None -> ()

let qcheck_brent_polynomial =
  (* x^3 - c has the unique real root c^(1/3). *)
  QCheck.Test.make ~name:"brent solves cube roots" ~count:200
    QCheck.(float_range 0.1 1000.)
    (fun c ->
      let f x = (x *. x *. x) -. c in
      let root = Roots.brent ~f ~lo:0. ~hi:(Float.max 1. c) () in
      Float.abs (root -. (c ** (1. /. 3.))) < 1e-6 *. (1. +. c))

(* --- Apportion --- *)

let test_apportion_exact () =
  Alcotest.(check (array int)) "exact split" [| 2; 3; 5 |]
    (Apportion.largest_remainder ~weights:[| 2.; 3.; 5. |] ~total:10)

let test_apportion_rounding () =
  let parts = Apportion.largest_remainder ~weights:[| 1.; 1.; 1. |] ~total:10 in
  Alcotest.(check int) "sums to total" 10 (Array.fold_left ( + ) 0 parts);
  checkb "within one of fair share" true
    (Array.for_all (fun p -> p = 3 || p = 4) parts)

let test_apportion_zero_total () =
  Alcotest.(check (array int)) "zero total" [| 0; 0 |]
    (Apportion.largest_remainder ~weights:[| 1.; 2. |] ~total:0)

let qcheck_apportion =
  QCheck.Test.make ~name:"apportionment: sums, within-1 fairness" ~count:300
    QCheck.(
      pair
        (array_of_size Gen.(int_range 1 30) (float_range 0.01 100.))
        (int_range 0 10_000))
    (fun (weights, total) ->
      let parts = Apportion.largest_remainder ~weights ~total in
      let sum_w = Array.fold_left ( +. ) 0. weights in
      Array.fold_left ( + ) 0 parts = total
      && Array.for_all2
           (fun part w ->
             let exact = w /. sum_w *. float_of_int total in
             float_of_int part > exact -. 1. -. 1e-6
             && float_of_int part < exact +. 1. +. 1e-6)
           parts weights)

(* --- Text rendering --- *)

let test_table_render () =
  let t = Numerics.Ascii_table.create ~headers:[ "a"; "bb" ] in
  Numerics.Ascii_table.add_row t [ "1"; "22" ];
  let rendered = Numerics.Ascii_table.render t in
  checkb "contains header" true (String.length rendered > 0);
  checkb "has rule line" true (String.contains rendered '-')

let test_table_bad_row () =
  let t = Numerics.Ascii_table.create ~headers:[ "a"; "b" ] in
  Alcotest.check_raises "row arity"
    (Invalid_argument "Ascii_table.add_row: expected 2 cells, got 1") (fun () ->
      Numerics.Ascii_table.add_row t [ "only" ])

let test_chart_render () =
  let series =
    { Numerics.Ascii_chart.label = "x"; points = [| (0., 0.); (1., 1.); (2., 4.) |] }
  in
  let rendered = Numerics.Ascii_chart.render [ series ] in
  checkb "chart non-empty" true (String.length rendered > 0);
  checkb "legend present" true
    (String.length rendered >= 3 && String.contains rendered '[')

let test_chart_empty () =
  Alcotest.(check string) "empty chart" "" (Numerics.Ascii_chart.render [])

let suites =
  [
    ( "stats",
      [
        Alcotest.test_case "mean" `Quick test_mean_basic;
        Alcotest.test_case "variance known" `Quick test_variance_known;
        Alcotest.test_case "variance constant" `Quick test_variance_constant;
        Alcotest.test_case "variance singleton" `Quick test_variance_singleton;
        Alcotest.test_case "summary" `Quick test_summary;
        Alcotest.test_case "empty raises" `Quick test_empty_raises;
        QCheck_alcotest.to_alcotest qcheck_mean_bounds;
      ] );
    ( "kahan",
      [
        Alcotest.test_case "catastrophic cancellation" `Quick test_kahan_catastrophic;
        Alcotest.test_case "long series" `Quick test_kahan_small_series;
        Alcotest.test_case "incremental" `Quick test_kahan_incremental;
        Alcotest.test_case "sum_by" `Quick test_kahan_sum_by;
      ] );
    ( "roots",
      [
        Alcotest.test_case "bisect sqrt2" `Quick test_bisect_sqrt2;
        Alcotest.test_case "brent sqrt2" `Quick test_brent_sqrt2;
        Alcotest.test_case "brent dottie" `Quick test_brent_transcendental;
        Alcotest.test_case "no bracket raises" `Quick test_no_bracket;
        Alcotest.test_case "newton converges" `Quick test_newton_converges;
        Alcotest.test_case "newton flat fails" `Quick test_newton_zero_derivative;
        Alcotest.test_case "expand bracket" `Quick test_expand_bracket;
        Alcotest.test_case "expand bracket none" `Quick test_expand_bracket_none;
        QCheck_alcotest.to_alcotest qcheck_brent_polynomial;
      ] );
    ( "apportion",
      [
        Alcotest.test_case "exact" `Quick test_apportion_exact;
        Alcotest.test_case "rounding" `Quick test_apportion_rounding;
        Alcotest.test_case "zero total" `Quick test_apportion_zero_total;
        QCheck_alcotest.to_alcotest qcheck_apportion;
      ] );
    ( "text rendering",
      [
        Alcotest.test_case "table render" `Quick test_table_render;
        Alcotest.test_case "table arity" `Quick test_table_bad_row;
        Alcotest.test_case "chart render" `Quick test_chart_render;
        Alcotest.test_case "chart empty" `Quick test_chart_empty;
      ] );
  ]
