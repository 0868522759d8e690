(* The typed query plane: codec strictness, fingerprint normalization
   and solver dispatch.  The byte-identity of the three surfaces that
   share [Api.Eval.eval] is asserted end-to-end in Test_serve; here we
   pin the request/response codecs and the cache-key algebra they rely
   on. *)

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let req ?bandwidth ?latency ?workload ?comm_model ?total ~platform ~kind () =
  match Api.Request.make ?bandwidth ?latency ?workload ?comm_model ?total ~platform ~kind () with
  | Ok r -> r
  | Error msg -> Alcotest.failf "request rejected: %s" msg

let speeds a = Api.Request.Speeds a

(* ------------------------------------------------------------------ *)
(* Request codec: round-trip and strictness.                           *)

let test_request_roundtrip () =
  let r =
    req ~bandwidth:2. ~latency:0.25 ~workload:(Dlt.Cost_model.Power 1.5)
      ~comm_model:Dlt.Schedule.One_port ~total:42.
      ~platform:(speeds [| 3.; 1.; 2. |]) ~kind:Api.Request.Ratio ()
  in
  match Api.Request.of_json (Api.Request.to_json r) with
  | Error msg -> Alcotest.failf "round-trip rejected: %s" msg
  | Ok r' ->
      checks "same canonical encoding"
        (Obs.Json.to_compact (Api.Request.to_json r))
        (Obs.Json.to_compact (Api.Request.to_json r'))

let test_multi_load_roundtrip () =
  let r =
    req ~platform:(Api.Request.Profile { name = "uniform"; p = 5; seed = 7 })
      ~kind:(Api.Request.Multi_load [| 0.5; 1.5 |]) ()
  in
  match Api.Request.of_json (Api.Request.to_json r) with
  | Error msg -> Alcotest.failf "round-trip rejected: %s" msg
  | Ok r' ->
      checks "same fingerprint" (Api.Fingerprint.of_request r)
        (Api.Fingerprint.of_request r')

let expect_reject what line =
  match Api.Request.of_line line with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s was accepted" what

let test_reject_unknown_field () =
  expect_reject "unknown field"
    {|{"kind":"ratio","platform":{"speeds":[1,2]},"frobnicate":3}|};
  expect_reject "unknown platform field"
    {|{"kind":"ratio","platform":{"speeds":[1,2],"gpus":1}}|}

let test_reject_nan_speed () =
  (* Obs.Json has no NaN literal, so a NaN can only arrive through a
     profile-free speeds vector with a malformed number — but validate
     must also catch a NaN built programmatically. *)
  (match Api.Request.make ~platform:(speeds [| 1.; Float.nan |]) ~kind:Api.Request.Plan () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "NaN speed accepted");
  expect_reject "negative speed" {|{"kind":"plan","platform":{"speeds":[1,-2]}}|}

let test_reject_bad_shapes () =
  expect_reject "empty speeds" {|{"kind":"schedule","platform":{"speeds":[]}}|};
  expect_reject "zero total" {|{"kind":"ratio","platform":{"speeds":[1,2]},"total":0}|};
  expect_reject "negative latency"
    {|{"kind":"ratio","platform":{"speeds":[1]},"latency":-1}|};
  expect_reject "unknown profile"
    {|{"kind":"ratio","platform":{"profile":"warp","p":4}}|};
  expect_reject "wrong schema_version"
    {|{"schema_version":99,"kind":"ratio","platform":{"speeds":[1,2]}}|};
  expect_reject "bad workload"
    {|{"kind":"ratio","platform":{"speeds":[1]},"workload":"cubic?"}|}

(* ------------------------------------------------------------------ *)
(* Response codec.                                                     *)

let test_response_roundtrip () =
  let open Api.Response in
  let bodies =
    [
      Ratio { makespan = 1.5; ideal = 1.; ratio = 1.5; done_fraction = 0.75 };
      Plan { makespan = 2.; allocation = [| 1.; 3. |]; fractions = [| 0.25; 0.75 |] };
      Multi_load
        { throughput = 4.; rates = [| 1.; 3. |]; admitted = [| 0.5 |]; utilization = 0.125 };
      Error { code = "deadline"; message = "too slow" };
    ]
  in
  List.iter
    (fun body ->
      let t = { body; provenance = { solver = "dlt.linear" } } in
      match of_json (Obs.Json.of_string (to_line t) |> Result.get_ok) with
      | Error msg -> Alcotest.failf "response round-trip rejected: %s" msg
      | Ok t' -> checks "same line" (to_line t) (to_line t'))
    bodies

(* ------------------------------------------------------------------ *)
(* Fingerprints.                                                       *)

let test_fingerprint_permutation () =
  let k a = Api.Fingerprint.of_request (req ~platform:(speeds a) ~kind:Api.Request.Ratio ()) in
  checks "permuted speeds share a key" (k [| 1.; 2.; 3. |]) (k [| 3.; 1.; 2. |]);
  checkb "different speeds differ" false (k [| 1.; 2.; 3. |] = k [| 1.; 2.; 4. |])

let test_fingerprint_profile_equals_draw () =
  let pr = req ~platform:(Api.Request.Profile { name = "uniform"; p = 6; seed = 42 })
      ~kind:Api.Request.Plan () in
  let drawn = Platform.Star.speeds (Api.Request.star pr) in
  let ex = req ~platform:(speeds drawn) ~kind:Api.Request.Plan () in
  checks "profile and its drawn speeds share a key"
    (Api.Fingerprint.of_request pr) (Api.Fingerprint.of_request ex)

let test_fingerprint_kind_sensitivity () =
  let k kind = Api.Fingerprint.of_request (req ~platform:(speeds [| 1.; 2. |]) ~kind ()) in
  checkb "ratio <> plan" false (k Api.Request.Ratio = k Api.Request.Plan);
  checkb "ratio <> schedule" false (k Api.Request.Ratio = k Api.Request.Schedule)

let test_quantize_boundaries () =
  (* Fingerprints quantize floats through the wire codec's rendering:
     distinct doubles never merge, and parsing the rendering returns the
     exact double. *)
  let q = Obs.Json.float_compact in
  checkb "0.1+0.2 <> 0.3" false (q (0.1 +. 0.2) = q 0.3);
  checks "1.0 renders short" "1" (q 1.);
  checks "lossless, not shortest" "4.94065645841247e-324" (q 5e-324);
  List.iter
    (fun f -> Alcotest.(check (float 0.)) "parse round-trip" f (float_of_string (q f)))
    [ 0.1; 0.1 +. 0.2; 1e-300; 1.7976931348623157e308; 4.9e-324; 1. /. 3. ]

let qcheck_no_collision =
  (* Grid-valued speed vectors under varying cost models: two requests
     get the same key iff the sorted vectors AND the workloads are
     equal. *)
  let workload_of = function
    | 0 -> Dlt.Cost_model.Linear
    | 1 -> Dlt.Cost_model.N_log_n
    | a -> Dlt.Cost_model.Power (float_of_int a)
  in
  let gen = QCheck.(pair (list_of_size Gen.(1 -- 6) (int_range 1 9)) (int_range 0 4)) in
  QCheck.Test.make ~count:300 ~name:"fingerprint collision-free on grids"
    (QCheck.pair gen gen)
    (fun ((sa, wa), (sb, wb)) ->
      let vec l = Array.of_list (List.map float_of_int l) in
      let key (l, w) =
        Api.Fingerprint.of_request
          (req ~workload:(workload_of w) ~platform:(speeds (vec l)) ~kind:Api.Request.Ratio ())
      in
      let canon (l, w) = (List.sort compare l, workload_of w) in
      (key (sa, wa) = key (sb, wb)) = (canon (sa, wa) = canon (sb, wb)))

let qcheck_quantize_roundtrip =
  QCheck.Test.make ~count:500 ~name:"quantize parses back exactly"
    QCheck.(float_bound_exclusive 1e6)
    (fun f ->
      let f = Float.abs f +. 1e-9 in
      float_of_string (Obs.Json.float_compact f) = f)

(* ------------------------------------------------------------------ *)
(* Evaluation sanity.                                                  *)

let body_of r = (Api.Eval.eval r).Api.Response.body

let test_eval_ratio_linear () =
  let r = req ~platform:(speeds [| 1.; 2.; 3. |]) ~total:6. ~kind:Api.Request.Ratio () in
  checks "solver" "dlt.linear" (Api.Eval.solver_name r);
  match body_of r with
  | Api.Response.Ratio b ->
      checkb "ratio >= 1" true (b.ratio >= 1. -. 1e-9);
      checkb "done fraction in (0,1]" true (b.done_fraction > 0. && b.done_fraction <= 1. +. 1e-9)
  | _ -> Alcotest.fail "expected Ratio body"

let test_eval_plan_nonlinear () =
  let r =
    req ~workload:(Dlt.Cost_model.Power 2.) ~platform:(speeds [| 1.; 2.; 4. |])
      ~total:10. ~kind:Api.Request.Plan ()
  in
  checks "solver" "dlt.nonlinear.newton" (Api.Eval.solver_name r);
  match body_of r with
  | Api.Response.Plan b ->
      let sum = Array.fold_left ( +. ) 0. b.allocation in
      Alcotest.(check (float 1e-6)) "allocation covers the load" 10. sum;
      let fsum = Array.fold_left ( +. ) 0. b.fractions in
      Alcotest.(check (float 1e-9)) "fractions sum to 1" 1. fsum
  | _ -> Alcotest.fail "expected Plan body"

let test_eval_schedule_workers () =
  let r = req ~platform:(speeds [| 1.; 2. |]) ~total:3. ~kind:Api.Request.Schedule () in
  match body_of r with
  | Api.Response.Schedule b ->
      Alcotest.(check int) "one row per worker" 2 (Array.length b.workers);
      Array.iter
        (fun (w : Api.Response.worker_row) ->
          checkb "compute ends by makespan" true (w.compute_end <= b.makespan +. 1e-9))
        b.workers
  | _ -> Alcotest.fail "expected Schedule body"

let test_eval_multi_load_admission () =
  (* Demands beyond steady-state capacity are clipped, in order. *)
  let r =
    req ~platform:(speeds [| 3.; 3.; 1. |])
      ~kind:(Api.Request.Multi_load [| 1.; 1e9 |]) ()
  in
  checks "solver" "dlt.steady_state" (Api.Eval.solver_name r);
  match body_of r with
  | Api.Response.Multi_load b ->
      checkb "throughput positive" true (b.throughput > 0.);
      Alcotest.(check (float 1e-9)) "first load fully admitted" 1. b.admitted.(0);
      let used = Array.fold_left ( +. ) 0. b.admitted in
      checkb "admission within capacity" true (used <= b.throughput +. 1e-9);
      Alcotest.(check (float 1e-9)) "saturated" 1. b.utilization
  | _ -> Alcotest.fail "expected Multi_load body"

let test_eval_invalid_request () =
  let bad = { (req ~platform:(speeds [| 1. |]) ~kind:Api.Request.Ratio ()) with
              Api.Request.total = -1. } in
  match Api.Eval.eval bad with
  | { Api.Response.body = Api.Response.Error e; provenance } ->
      checks "code" "invalid_request" e.code;
      checks "solver" "api.validate" provenance.Api.Response.solver
  | _ -> Alcotest.fail "expected Error body"

let test_eval_line_bad_json () =
  match Api.Eval.eval_line "{not json" with
  | { Api.Response.body = Api.Response.Error e; _ } -> checks "code" "bad_request" e.code
  | _ -> Alcotest.fail "expected Error body"

let suites =
  [
    ( "api.codec",
      [
        Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
        Alcotest.test_case "multi-load round-trip" `Quick test_multi_load_roundtrip;
        Alcotest.test_case "unknown field rejected" `Quick test_reject_unknown_field;
        Alcotest.test_case "NaN/negative speed rejected" `Quick test_reject_nan_speed;
        Alcotest.test_case "malformed shapes rejected" `Quick test_reject_bad_shapes;
        Alcotest.test_case "response round-trip" `Quick test_response_roundtrip;
      ] );
    ( "api.fingerprint",
      [
        Alcotest.test_case "permutation invariance" `Quick test_fingerprint_permutation;
        Alcotest.test_case "profile equals its draw" `Quick
          test_fingerprint_profile_equals_draw;
        Alcotest.test_case "kind sensitivity" `Quick test_fingerprint_kind_sensitivity;
        Alcotest.test_case "quantize boundaries" `Quick test_quantize_boundaries;
        QCheck_alcotest.to_alcotest qcheck_no_collision;
        QCheck_alcotest.to_alcotest qcheck_quantize_roundtrip;
      ] );
    ( "api.eval",
      [
        Alcotest.test_case "ratio linear" `Quick test_eval_ratio_linear;
        Alcotest.test_case "plan nonlinear" `Quick test_eval_plan_nonlinear;
        Alcotest.test_case "schedule workers" `Quick test_eval_schedule_workers;
        Alcotest.test_case "multi-load admission" `Quick test_eval_multi_load_admission;
        Alcotest.test_case "invalid request" `Quick test_eval_invalid_request;
        Alcotest.test_case "bad wire line" `Quick test_eval_line_bad_json;
      ] );
  ]
