(* The serve daemon stack: LRU cache semantics, the zero-allocation hit
   path, admission control, and end-to-end byte-identity between the
   daemon, the batching engine and the one-shot CLI. *)

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let checki = Alcotest.(check int)

let ratio_line total =
  Printf.sprintf
    {|{"kind":"ratio","platform":{"speeds":[1,2,3,5]},"workload":{"power":2},"total":%d}|}
    total

(* ------------------------------------------------------------------ *)
(* Cache.                                                              *)

let test_cache_lru_eviction () =
  let c = Serve.Cache.create ~capacity:2 in
  Serve.Cache.insert c ~key:"a" ~line:"A";
  Serve.Cache.insert c ~key:"b" ~line:"B";
  checks "a cached" "A" (Serve.Cache.find c "a");
  (* a is now most recent; inserting c evicts b *)
  Serve.Cache.insert c ~key:"c" ~line:"C";
  checki "size bounded" 2 (Serve.Cache.size c);
  checki "one eviction" 1 (Serve.Cache.evictions c);
  checks "a survived" "A" (Serve.Cache.find c "a");
  (match Serve.Cache.find c "b" with
  | exception Serve.Cache.Miss -> ()
  | line -> Alcotest.failf "b should be evicted, got %s" line);
  checks "c cached" "C" (Serve.Cache.find c "c")

let test_cache_memo_follows_eviction () =
  let c = Serve.Cache.create ~capacity:1 in
  Serve.Cache.insert c ~key:"k1" ~line:"L1";
  Serve.Cache.memoize c ~raw:"raw1" ~key:"k1";
  checks "memo hit" "L1" (Serve.Cache.find_memo c "raw1");
  Serve.Cache.insert c ~key:"k2" ~line:"L2";
  (match Serve.Cache.find_memo c "raw1" with
  | exception Serve.Cache.Miss -> ()
  | line -> Alcotest.failf "memo should die with its node, got %s" line);
  checks "replacement cached" "L2" (Serve.Cache.find c "k2")

let test_cache_replace_same_key () =
  let c = Serve.Cache.create ~capacity:4 in
  Serve.Cache.insert c ~key:"k" ~line:"old";
  Serve.Cache.insert c ~key:"k" ~line:"new";
  checki "no duplicate" 1 (Serve.Cache.size c);
  checks "replaced" "new" (Serve.Cache.find c "k")

(* ------------------------------------------------------------------ *)
(* Batch engine.                                                       *)

let batch ?(config = Serve.Batch.default_config) () = Serve.Batch.create config

let cache_size b =
  match Obs.Json.member "cache_size" (Serve.Batch.stats_json b) with
  | Some (Obs.Json.Int n) -> n
  | _ -> Alcotest.fail "stats missing cache_size"

let test_handle_line_miss_then_hit () =
  let b = batch () in
  let line = ratio_line 10 in
  let cold = Serve.Batch.handle_line b line in
  let warm = Serve.Batch.handle_line b line in
  checks "hit is byte-identical to the cold solve" cold warm;
  checkb "counted a hit" true (Serve.Batch.hits b >= 1);
  checki "one miss" 1 (Serve.Batch.misses b)

let test_handle_line_zero_alloc_hit () =
  let b = batch () in
  let line = ratio_line 11 in
  ignore (Serve.Batch.handle_line b line);
  ignore (Serve.Batch.handle_line b line);
  (* Warmed: the repeat is a memo probe. *)
  let before = Gc.minor_words () in
  let answer = Serve.Batch.handle_line b line in
  let after = Gc.minor_words () in
  checkb "answer non-empty" true (String.length answer > 0);
  Alcotest.(check (float 0.)) "zero minor words on the hit path" 0. (after -. before)

let test_spelling_variants_share_entry () =
  (* Permuted speeds and reordered fields hit the fingerprint table and
     answer byte-identically; the memo then catches each spelling. *)
  let b = batch () in
  let a1 =
    Serve.Batch.handle_line b {|{"kind":"ratio","platform":{"speeds":[1,2,3]},"total":5}|}
  in
  let a2 =
    Serve.Batch.handle_line b {|{"total":5,"platform":{"speeds":[3,1,2]},"kind":"ratio"}|}
  in
  checks "spellings agree" a1 a2;
  checki "solved once" 1 (Serve.Batch.misses b);
  checkb "second spelling was a hit" true (Serve.Batch.hits b >= 1)

let test_batch_order_and_dedup () =
  let b = batch () in
  let lines = [| ratio_line 1; ratio_line 2; ratio_line 1; ratio_line 3; ratio_line 2 |] in
  let answers = Serve.Batch.handle_batch b lines in
  checki "one answer per request" (Array.length lines) (Array.length answers);
  checks "duplicates answered identically" answers.(0) answers.(2);
  checks "duplicates answered identically (2)" answers.(1) answers.(4);
  (* Every line missed the cache, but the batch deduplicates by
     fingerprint before solving: only the three distinct requests reach
     the pool and the cache. *)
  checki "five lookup misses" 5 (Serve.Batch.misses b);
  checki "three distinct solves cached" 3 (cache_size b);
  Array.iter
    (fun a -> checkb "no errors" false
        (Api.Response.is_error (Result.get_ok (Api.Response.of_json (Result.get_ok (Obs.Json.of_string a))))))
    answers

let test_malformed_request () =
  let b = batch () in
  let answer = Serve.Batch.handle_line b "{definitely not json" in
  checkb "bad_request error" true
    (let open Api.Response in
     match of_json (Result.get_ok (Obs.Json.of_string answer)) with
     | Ok { body = Error e; _ } -> e.code = "bad_request"
     | _ -> false)

let error_code answer =
  let open Api.Response in
  match of_json (Result.get_ok (Obs.Json.of_string answer)) with
  | Ok { body = Error e; _ } -> Some e.code
  | _ -> None

let test_deadline_rejection () =
  let b =
    batch ~config:{ Serve.Batch.default_config with deadline_s = Some 0. } ()
  in
  let answer = Serve.Batch.handle_line b (ratio_line 12) in
  Alcotest.(check (option string)) "deadline code" (Some "deadline") (error_code answer);
  checkb "counted rejected" true (Serve.Batch.requests b = 1)

let test_queue_overflow () =
  let b = batch ~config:{ Serve.Batch.default_config with queue_depth = 2 } () in
  let lines = Array.init 5 (fun i -> ratio_line (20 + i)) in
  let answers = Serve.Batch.handle_batch b lines in
  let rejected =
    Array.to_list answers
    |> List.filter (fun a -> error_code a = Some "overloaded")
    |> List.length
  in
  checki "overflow rejected" 3 rejected;
  checki "admitted solved" 2 (cache_size b)

(* ------------------------------------------------------------------ *)
(* Daemon over a real socket.                                          *)

let start_daemon () =
  let socket_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "nldl-test-%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists socket_path then Sys.remove socket_path;
  let ready = Atomic.make false in
  let daemon =
    Domain.spawn (fun () ->
        Serve.Daemon.run
          ~on_ready:(fun () -> Atomic.set ready true)
          {
            Serve.Daemon.socket_path;
            batch = Serve.Batch.default_config;
          })
  in
  let t0 = Obs.Clock.now_ns () in
  let deadline_ns = 10_000_000_000 in
  while (not (Atomic.get ready)) && Obs.Clock.now_ns () - t0 < deadline_ns do
    Unix.sleepf 0.01
  done;
  checkb "daemon came up" true (Atomic.get ready);
  (socket_path, daemon)

let stop_daemon ctl daemon =
  checks "shutdown ack" {|{"control":"ok"}|}
    (Serve.Client.request ctl {|{"control":"shutdown"}|});
  Serve.Client.close ctl;
  Domain.join daemon

(* ------------------------------------------------------------------ *)
(* One byte-identity law over every surface.                           *)

let normal_lines =
  [
    ratio_line 13;
    {|{"kind":"schedule","platform":{"speeds":[1,2,4]},"workload":{"power":1.5},"total":50}|};
    {|{"kind":"plan","platform":{"speeds":[2,3]},"comm_model":"one_port","total":9}|};
    {|{"kind":"multi_load","platform":{"speeds":[1,2,3]},"loads":[0.5,1]}|};
    "{definitely not json";
  ]

(* Requests that validate but drive a solver out of range: a latency
   that swamps any makespan bracket, speeds and a load at the ends of
   the float range, and a bandwidth so small the one-port cost model's
   own precondition fails. *)
let raising_lines =
  [
    {|{"kind":"ratio","platform":{"speeds":[1,2]},"latency":1e308,"workload":{"power":2},"total":5}|};
    {|{"kind":"schedule","platform":{"speeds":[1e-300,1e300]},"workload":{"power":1000},"total":1e308}|};
    {|{"kind":"plan","platform":{"speeds":[1,2]},"bandwidth":1e-320,"comm_model":"one_port","workload":{"power":2},"total":5}|};
  ]

let cli_answer line =
  match Cli.eval_for_test [ "query"; "--inline"; line ] with
  | Ok { status = 0; out } -> out
  | Ok { status; _ } -> Alcotest.failf "nldl query --inline exited %d on %s" status line
  | Error _ -> Alcotest.failf "nldl query --inline failed on %s" line

let test_byte_identity_every_surface () =
  let lines = normal_lines @ raising_lines in
  let socket_path, daemon = start_daemon () in
  let client = Serve.Client.connect_unix socket_path in
  List.iter
    (fun line ->
      let cli = cli_answer line in
      let b = batch () in
      let single = Serve.Batch.handle_line b line in
      let single_warm = Serve.Batch.handle_line b line in
      let batched = (Serve.Batch.handle_batch (batch ()) [| line |]).(0) in
      let daemon_cold = Serve.Client.request client line in
      let daemon_warm = Serve.Client.request client line in
      checks "handle_line = one-shot CLI" cli (single ^ "\n");
      checks "handle_line repeat = handle_line" single single_warm;
      checks "handle_batch = handle_line" single batched;
      checks "daemon = handle_line" single daemon_cold;
      checks "daemon repeat = handle_line" single daemon_warm)
    lines;
  ignore (stop_daemon client daemon : Serve.Batch.t);
  List.iter
    (fun line ->
      Alcotest.(check (option string))
        "solver failure is typed" (Some "solver_failure")
        (error_code (cli_answer line));
      (* Errors are never cached: a repeat solves again. *)
      let b = batch () in
      ignore (Serve.Batch.handle_line b line);
      let misses = Serve.Batch.misses b and size = cache_size b in
      ignore (Serve.Batch.handle_line b line);
      checki "repeat is a miss" (misses + 1) (Serve.Batch.misses b);
      checki "cache size unchanged" size (cache_size b))
    raising_lines

let test_daemon_concurrent_clients () =
  let socket_path, daemon = start_daemon () in
  (* Four clients, each issuing the same small query mix; half the
     traffic repeats, so the cache must register hits. *)
  let queries = Array.init 8 (fun i -> ratio_line (30 + (i mod 4))) in
  let client_run () =
    let c = Serve.Client.connect_unix socket_path in
    let answers = Array.map (fun q -> Serve.Client.request c q) queries in
    Serve.Client.close c;
    answers
  in
  let clients = Array.init 4 (fun _ -> Domain.spawn client_run) in
  let all = Array.map Domain.join clients in
  Array.iter
    (fun answers ->
      Array.iteri
        (fun i a ->
          checks "all clients agree, repeats identical" all.(0).(i mod 4) a)
        answers)
    all;
  let ctl = Serve.Client.connect_unix socket_path in
  checks "ping" {|{"control":"pong"}|} (Serve.Client.request ctl {|{"control":"ping"}|});
  let stats = Serve.Client.request ctl {|{"control":"stats"}|} in
  (match Obs.Json.of_string stats with
  | Error msg -> Alcotest.failf "stats not JSON: %s" msg
  | Ok j ->
      (match Obs.Json.member "cache_hits" j with
      | Some (Obs.Json.Int h) -> checkb "cache hits observed" true (h > 0)
      | _ -> Alcotest.fail "stats missing cache_hits"));
  let engine = stop_daemon ctl daemon in
  checkb "daemon served everything" true (Serve.Batch.requests engine >= 32);
  checkb "socket unlinked" false (Sys.file_exists socket_path)

(* One write carrying query, ping, query: the answers come back in
   send order, the control answer included, and a stats line pipelined
   after a query already counts it.  Then a line split across two
   writes. *)
let test_daemon_pipelined_order () =
  let socket_path, daemon = start_daemon () in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  let ic = Unix.in_channel_of_descr fd in
  let q1 = ratio_line 41 and q2 = ratio_line 42 in
  let burst =
    String.concat "\n" [ q1; {|{"control":"ping"}|}; q2; {|{"control":"stats"}|}; q1 ] ^ "\n"
  in
  let sent = Unix.write_substring fd burst 0 (String.length burst) in
  checki "one write" (String.length burst) sent;
  let replies = List.init 5 (fun _ -> input_line ic) in
  (* A line split across two reads is reassembled. *)
  let half = String.length q2 / 2 in
  ignore (Unix.write_substring fd q2 0 half);
  Unix.sleepf 0.05;
  let rest = String.sub q2 half (String.length q2 - half) ^ "\n" in
  ignore (Unix.write_substring fd rest 0 (String.length rest));
  let split = input_line ic in
  close_in ic;
  let b = batch () in
  let a1 = Serve.Batch.handle_line b q1 and a2 = Serve.Batch.handle_line b q2 in
  (match replies with
  | [ r1; pong; r2; stats; r1' ] ->
      checks "first query first" a1 r1;
      checks "ping second" {|{"control":"pong"}|} pong;
      checks "second query third" a2 r2;
      checks "repeat last" a1 r1';
      checks "split line answered" a2 split;
      (match Obs.Json.member "requests" (Result.get_ok (Obs.Json.of_string stats)) with
      | Some (Obs.Json.Int n) -> checki "stats counts the earlier queries" 2 n
      | _ -> Alcotest.fail "stats missing requests")
  | _ -> Alcotest.fail "expected five replies");
  let ctl = Serve.Client.connect_unix socket_path in
  let engine = stop_daemon ctl daemon in
  checki "controls are not requests" 4 (Serve.Batch.requests engine)

(* Clients that hang up before reading their answers: each answer's
   write fails with EPIPE, and the daemon keeps serving. *)
let test_daemon_survives_hangups () =
  let socket_path, daemon = start_daemon () in
  for i = 1 to 8 do
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX socket_path);
    let line = ratio_line (50 + i) ^ "\n" in
    ignore (Unix.write_substring fd line 0 (String.length line));
    Unix.close fd
  done;
  Unix.sleepf 0.1;
  let ctl = Serve.Client.connect_unix socket_path in
  checks "still answers" {|{"control":"pong"}|} (Serve.Client.request ctl {|{"control":"ping"}|});
  ignore (stop_daemon ctl daemon : Serve.Batch.t)

let suites =
  [
    ( "serve.cache",
      [
        Alcotest.test_case "LRU eviction order" `Quick test_cache_lru_eviction;
        Alcotest.test_case "memo dies with its node" `Quick test_cache_memo_follows_eviction;
        Alcotest.test_case "replace same key" `Quick test_cache_replace_same_key;
      ] );
    ( "serve.batch",
      [
        Alcotest.test_case "miss then hit" `Quick test_handle_line_miss_then_hit;
        Alcotest.test_case "zero-alloc hit path" `Quick test_handle_line_zero_alloc_hit;
        Alcotest.test_case "spelling variants share entry" `Quick
          test_spelling_variants_share_entry;
        Alcotest.test_case "batch order and dedup" `Quick test_batch_order_and_dedup;
        Alcotest.test_case "malformed request" `Quick test_malformed_request;
        Alcotest.test_case "deadline rejection" `Quick test_deadline_rejection;
        Alcotest.test_case "queue overflow" `Quick test_queue_overflow;
      ] );
    ( "serve.identity",
      [
        Alcotest.test_case "daemon = one-shot CLI = both batch entry points, bytes" `Quick
          test_byte_identity_every_surface;
      ] );
    ( "serve.daemon",
      [
        Alcotest.test_case "concurrent clients over a socket" `Quick test_daemon_concurrent_clients;
        Alcotest.test_case "pipelined replies in send order" `Quick test_daemon_pipelined_order;
        Alcotest.test_case "survives clients that hang up" `Quick test_daemon_survives_hangups;
      ] );
  ]
