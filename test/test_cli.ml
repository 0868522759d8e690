(* The command-line grammar, evaluated in-process through the
   documented programmatic entry [Cli.eval_for_test] — no argv arrays,
   no dup2 plumbing of our own. *)

let checkb = Alcotest.(check bool)

let expect_ok args =
  match Cli.eval_for_test args with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "command failed (%s): %s"
        (match e with `Exn -> "exception" | `Parse -> "parse" | `Term -> "term")
        (String.concat " " args)

let expect_out args =
  match Cli.eval_for_test args with
  | Ok { Cli.status = 0; out } -> out
  | Ok { Cli.status; _ } ->
      Alcotest.failf "exit %d: %s" status (String.concat " " args)
  | Error _ -> Alcotest.failf "command failed: %s" (String.concat " " args)

let expect_parse_error args =
  (* Cmdliner reports unknown sub-commands as `Term errors and malformed
     options as `Parse errors; both are rejections. *)
  match Cli.eval_for_test args with
  | Error (`Parse | `Term) -> ()
  | Ok _ | Error `Exn ->
      Alcotest.failf "expected parse error: %s" (String.concat " " args)

let test_version () =
  Alcotest.(check string) "nldl --version" "1.0.0\n" (expect_out [ "--version" ])

let test_help () = expect_ok [ "--help=plain" ]
let test_subcommand_help () = expect_ok [ "fig4"; "--help=plain" ]

let test_partition_runs () = expect_ok [ "partition"; "--speeds"; "1,2,4" ]

let test_partition_platform_file () =
  let path = Filename.temp_file "nldl" ".platform" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> output_string oc "1 2\n3 4\n");
      expect_ok [ "partition"; "--platform"; path ])

let test_fig4_small_run () =
  expect_ok [ "fig4"; "--trials"; "2"; "-p"; "10"; "--profile"; "homogeneous" ]

let test_fig4_csv () =
  let path = Filename.temp_file "nldl" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      expect_ok [ "fig4"; "--trials"; "2"; "-p"; "10"; "--csv"; path ];
      let ic = open_in path in
      let header = input_line ic in
      close_in ic;
      checkb "csv written" true (String.length header > 0))

let test_faults_json () =
  (* The registry-built faults command emits the Api.Response envelope
     with the experiment's rows. *)
  let path = Filename.temp_file "nldl" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      expect_ok
        [
          "faults"; "--trials"; "2"; "--crash-rates"; "0.5"; "--sigmas"; "0.5";
          "--tasks"; "8"; "--json"; path;
        ];
      let doc = In_channel.with_open_text path In_channel.input_all in
      match Obs.Json.of_string doc with
      | Error msg -> Alcotest.failf "invalid JSON: %s" msg
      | Ok json ->
          checkb "has rows" true
            (match Obs.Json.member "rows" json with
            | Some (Obs.Json.List (_ :: _)) -> true
            | _ -> false);
          checkb "carries the envelope version" true
            (Obs.Json.member "schema_version" json
            = Some (Obs.Json.Int Api.Response.schema_version)))

let test_nonlinear_runs () = expect_ok [ "nonlinear"; "--alpha"; "2"; "-p"; "2,4" ]

let test_ratio_runs () = expect_ok [ "ratio"; "-k"; "4"; "-p"; "6" ]

let test_query_inline () =
  let out =
    expect_out
      [ "query"; "--inline"; {|{"kind":"ratio","platform":{"speeds":[1,2]},"total":4}|} ]
  in
  match Obs.Json.of_string (String.trim out) with
  | Error msg -> Alcotest.failf "query emitted invalid JSON: %s" msg
  | Ok j -> (
      match Api.Response.of_json j with
      | Ok r -> checkb "not an error" false (Api.Response.is_error r)
      | Error msg -> Alcotest.failf "not a response envelope: %s" msg)

let test_query_file () =
  let path = Filename.temp_file "nldl" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc
            ("{\"kind\":\"plan\",\"platform\":{\"speeds\":[1,2,4]}}\n"
            ^ "{\"kind\":\"ratio\",\"platform\":{\"speeds\":[2,2]}}\n"));
      let out = expect_out [ "query"; path ] in
      let lines = String.split_on_char '\n' (String.trim out) in
      Alcotest.(check int) "one answer per line" 2 (List.length lines))

let test_unknown_command () = expect_parse_error [ "frobnicate" ]
let test_bad_profile () = expect_parse_error [ "fig4"; "--profile"; "warp-speed" ]
let test_bad_number () = expect_parse_error [ "fig4"; "--trials"; "many" ]

let test_trace_budgets_positive () =
  List.iter expect_parse_error
    [
      [ "mrsim"; "--timeline"; "t.json"; "--timeline-events=-10" ];
      [ "mrsim"; "--timeline"; "t.json"; "--timeline-events"; "0" ];
      [ "profile"; "mrsim"; "--trace-events=-3" ];
      [ "profile"; "mrsim"; "--trace-events"; "0" ];
    ]

let test_serve_cache_positive () =
  List.iter expect_parse_error [ [ "serve"; "--cache"; "0" ]; [ "serve"; "--cache=-4" ] ]

let test_serve_queue_depth_positive () =
  List.iter expect_parse_error
    [ [ "serve"; "--queue-depth"; "0" ]; [ "serve"; "--queue-depth=-1" ] ]

let test_serve_deadline_non_negative () =
  List.iter expect_parse_error
    [ [ "serve"; "--deadline=-1" ]; [ "serve"; "--deadline"; "nan" ]; [ "serve"; "--deadline"; "inf" ] ]

let test_trials_positive () =
  List.iter expect_parse_error
    [ [ "fig4"; "--trials"; "0" ]; [ "time"; "--trials"; "0" ]; [ "faults"; "--trials=-2" ] ]

let test_query_no_daemon () =
  (* Nothing listens on the socket: a diagnostic and status 2, the
     status query uses for bad input, not an uncaught Unix_error. *)
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "nldl-absent-%d.sock" (Unix.getpid ()))
  in
  match Cli.eval_for_test [ "query"; "--socket"; path; "--inline"; "{}" ] with
  | Ok { Cli.status; out } ->
      Alcotest.(check int) "status 2" 2 status;
      Alcotest.(check string) "no answer printed" "" out
  | Error _ -> Alcotest.fail "query without a daemon must not crash"

let test_verbose_accepted () = expect_ok [ "partition"; "--speeds"; "1,2"; "-v" ]

let suites =
  [
    ( "cli",
      [
        Alcotest.test_case "version" `Quick test_version;
        Alcotest.test_case "help" `Quick test_help;
        Alcotest.test_case "subcommand help" `Quick test_subcommand_help;
        Alcotest.test_case "partition" `Quick test_partition_runs;
        Alcotest.test_case "partition from file" `Quick test_partition_platform_file;
        Alcotest.test_case "fig4 small" `Quick test_fig4_small_run;
        Alcotest.test_case "fig4 csv" `Quick test_fig4_csv;
        Alcotest.test_case "faults json" `Quick test_faults_json;
        Alcotest.test_case "nonlinear" `Quick test_nonlinear_runs;
        Alcotest.test_case "ratio" `Quick test_ratio_runs;
        Alcotest.test_case "query --inline" `Quick test_query_inline;
        Alcotest.test_case "query from file" `Quick test_query_file;
        Alcotest.test_case "unknown command" `Quick test_unknown_command;
        Alcotest.test_case "bad profile" `Quick test_bad_profile;
        Alcotest.test_case "bad number" `Quick test_bad_number;
        Alcotest.test_case "trace budgets must be positive" `Quick test_trace_budgets_positive;
        Alcotest.test_case "serve --cache must be positive" `Quick test_serve_cache_positive;
        Alcotest.test_case "serve --queue-depth must be positive" `Quick
          test_serve_queue_depth_positive;
        Alcotest.test_case "serve --deadline must be non-negative" `Quick
          test_serve_deadline_non_negative;
        Alcotest.test_case "--trials must be positive" `Quick test_trials_positive;
        Alcotest.test_case "query --socket with no daemon" `Quick test_query_no_daemon;
        Alcotest.test_case "verbose flag" `Quick test_verbose_accepted;
      ] );
  ]
