(* Gap-filling tests: smaller API surfaces not covered elsewhere. *)

module Profiles = Platform.Profiles
module Star = Platform.Star
module Rng = Numerics.Rng

let checkb = Alcotest.(check bool)

let test_pareto_profile () =
  let rng = Rng.create ~seed:191 () in
  let star =
    Profiles.generate rng ~p:50 (Profiles.Pareto { scale = 2.; shape = 1.5 })
  in
  Array.iter (fun s -> checkb "pareto speeds >= scale" true (s >= 2.)) (Star.speeds star);
  Alcotest.(check string) "name" "pareto"
    (Profiles.name (Profiles.Pareto { scale = 1.; shape = 1. }))

let test_schedule_pp () =
  let star = Star.of_speeds [ 1.; 2. ] in
  let schedule = Dlt.Linear.schedule Dlt.Schedule.One_port star ~total:10. in
  let rendered = Format.asprintf "%a" Dlt.Schedule.pp schedule in
  checkb "mentions makespan" true (String.length rendered > 20)

let test_fraction_validation () =
  List.iter
    (fun thunk -> checkb "invalid args rejected" true
        (try thunk (); false with Invalid_argument _ -> true))
    [
      (fun () -> ignore (Dlt.Fraction.power_partial_fraction ~alpha:0.5 ~p:4));
      (fun () -> ignore (Dlt.Fraction.power_partial_fraction ~alpha:2. ~p:0));
      (fun () -> ignore (Dlt.Fraction.sorting_gap ~n:1. ~p:4));
      (fun () -> ignore (Dlt.Fraction.done_fraction Dlt.Cost_model.Linear ~allocation:[||] ~total:0.));
    ]

let test_engine_step () =
  let engine = Des.Engine.create () in
  let hits = ref 0 in
  Des.Engine.schedule engine ~time:1. (fun _ -> incr hits);
  Des.Engine.schedule engine ~time:2. (fun _ -> incr hits);
  checkb "first step" true (Des.Engine.step engine);
  Alcotest.(check int) "one handler ran" 1 !hits;
  checkb "second step" true (Des.Engine.step engine);
  checkb "drained" false (Des.Engine.step engine)

let test_ascii_chart_flat_series () =
  (* Constant series exercise the degenerate-span path. *)
  let series =
    { Numerics.Ascii_chart.label = "flat"; points = [| (0., 5.); (1., 5.) |] }
  in
  checkb "renders" true (String.length (Numerics.Ascii_chart.render [ series ]) > 0)

let test_report_helpers () =
  checkb "mean_sd formats" true
    (String.length
       (Experiments.Report.mean_sd
          (Numerics.Stats.summarize [| 1.; 2.; 3. |]))
    > 0);
  Alcotest.(check string) "int cell" "42" (Experiments.Report.int_cell 42)

let suites =
  [
    ( "coverage gaps",
      [
        Alcotest.test_case "pareto profile" `Quick test_pareto_profile;
        Alcotest.test_case "schedule pp" `Quick test_schedule_pp;
        Alcotest.test_case "fraction validation" `Quick test_fraction_validation;
        Alcotest.test_case "engine step" `Quick test_engine_step;
        Alcotest.test_case "flat chart" `Quick test_ascii_chart_flat_series;
        Alcotest.test_case "report helpers" `Quick test_report_helpers;
      ] );
  ]
