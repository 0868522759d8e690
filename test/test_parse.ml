(* Platform text format. *)

module Parse = Platform.Parse
module Star = Platform.Star
module Processor = Platform.Processor

let checkb = Alcotest.(check bool)
let checkf msg ?(eps = 1e-9) expected actual =
  Alcotest.(check (float eps)) msg expected actual

let expect_ok = function
  | Ok star -> star
  | Error msg -> Alcotest.failf "unexpected parse error: %s" msg

(* The platform in the text format, full precision, in platform order. *)
let to_text star =
  String.concat ""
    (Array.to_list
       (Array.map
          (fun (p : Processor.t) ->
            Printf.sprintf "%.17g %.17g %.17g
" p.Processor.speed p.Processor.bandwidth
              p.Processor.latency)
          (Star.workers star)))

let test_parse_full () =
  let star = expect_ok (Parse.of_string "1 2 0.5\n4 8 0\n") in
  Alcotest.(check int) "two workers" 2 (Star.size star);
  let slow = Star.worker star 0 in
  checkf "speed" 1. slow.Processor.speed;
  checkf "bandwidth" 2. slow.Processor.bandwidth;
  checkf "latency" 0.5 slow.Processor.latency

let test_parse_defaults () =
  let star = expect_ok (Parse.of_string "3\n") in
  let w = Star.worker star 0 in
  checkf "default bandwidth" 1. w.Processor.bandwidth;
  checkf "default latency" 0. w.Processor.latency

let test_parse_comments_blanks () =
  let star = expect_ok (Parse.of_string "# header\n\n1 # inline comment\n\n2\n") in
  Alcotest.(check int) "two workers" 2 (Star.size star)

let test_parse_tabs () =
  let star = expect_ok (Parse.of_string "1\t5\t0.25\n") in
  checkf "tab separated" 5. (Star.worker star 0).Processor.bandwidth

let test_parse_errors () =
  let is_error ~substring text =
    match Parse.of_string text with
    | Ok _ -> Alcotest.failf "expected error for %S" text
    | Error msg ->
        checkb
          (Printf.sprintf "error mentions %S (%s)" substring msg)
          true
          (let re = substring in
           let len = String.length re in
           let rec search i =
             i + len <= String.length msg
             && (String.sub msg i len = re || search (i + 1))
           in
           search 0)
  in
  is_error ~substring:"line 2" "1\nnot_a_number\n";
  is_error ~substring:"expected" "1 2 3 4\n";
  is_error ~substring:"no workers" "# only comments\n";
  is_error ~substring:"speed" "0\n"

let test_roundtrip () =
  let star =
    Star.create
      [
        Processor.make ~id:1 ~speed:1.5 ~bandwidth:2.25 ~latency:0.125 ();
        Processor.make ~id:2 ~speed:3. ();
      ]
  in
  let reparsed = expect_ok (Parse.of_string (to_text star)) in
  Alcotest.(check int) "size preserved" (Star.size star) (Star.size reparsed);
  Array.iteri
    (fun i (p : Processor.t) ->
      let q = Star.worker reparsed i in
      checkf "speed" p.Processor.speed q.Processor.speed;
      checkf "bandwidth" p.Processor.bandwidth q.Processor.bandwidth;
      checkf "latency" p.Processor.latency q.Processor.latency)
    (Star.workers star)

let test_of_file () =
  let path = Filename.temp_file "nldl" ".platform" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> output_string oc "1\n2\n4\n");
      let star = expect_ok (Parse.of_file path) in
      Alcotest.(check int) "three workers" 3 (Star.size star))

let test_of_missing_file () =
  match Parse.of_file "/nonexistent/nldl.platform" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error _ -> ()

let qcheck_roundtrip =
  QCheck.Test.make ~name:"platform text roundtrip" ~count:100
    QCheck.(
      list_of_size Gen.(int_range 1 10)
        (triple (float_range 0.1 100.) (float_range 0.1 100.) (float_range 0. 10.)))
    (fun specs ->
      QCheck.assume (specs <> []);
      let star =
        Star.create
          (List.map
             (fun (s, bw, l) -> Processor.make ~id:0 ~speed:s ~bandwidth:bw ~latency:l ())
             specs)
      in
      match Parse.of_string (to_text star) with
      | Error _ -> false
      | Ok reparsed ->
          Star.size reparsed = Star.size star
          && Float.abs (Star.total_speed reparsed -. Star.total_speed star) < 1e-9)

let suites =
  [
    ( "platform parsing",
      [
        Alcotest.test_case "full spec" `Quick test_parse_full;
        Alcotest.test_case "defaults" `Quick test_parse_defaults;
        Alcotest.test_case "comments and blanks" `Quick test_parse_comments_blanks;
        Alcotest.test_case "tabs" `Quick test_parse_tabs;
        Alcotest.test_case "errors" `Quick test_parse_errors;
        Alcotest.test_case "roundtrip" `Quick test_roundtrip;
        Alcotest.test_case "of_file" `Quick test_of_file;
        Alcotest.test_case "missing file" `Quick test_of_missing_file;
        QCheck_alcotest.to_alcotest qcheck_roundtrip;
      ] );
  ]
