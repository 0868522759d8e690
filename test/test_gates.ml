(* The bench's declarative gate table (bench/gates.ml), over hand-built
   fresh and committed BENCH_results.json documents: every row passes
   exactly at its limit and fails just past it, fails on a missing or
   NaN metric, and the committed-baseline rows fail when the committed
   artifact lacks their key. *)

let checkb = Alcotest.(check bool)

let rec nest path v =
  match path with [] -> v | k :: rest -> Obs.Json.Obj [ (k, nest rest v) ]

let doc (r : Gates.row) v = nest (r.section :: r.path) v
let name (r : Gates.row) = String.concat "." (r.section :: r.path)

(* The committed value every Committed row is measured against. *)
let committed_value = 9.47e6

let passes ?(committed = Obs.Json.Null) r fresh =
  match Gates.evaluate ~fresh ~committed [ r ] with
  | [ v ] -> v.Gates.ok
  | _ -> Alcotest.fail "one verdict per row"

let limit (r : Gates.row) =
  match r.baseline with
  | Gates.Const -> r.threshold
  | Gates.Committed -> r.threshold *. committed_value
  | Gates.Kernel { base; slack } -> (r.threshold *. base) +. slack

let just_past (r : Gates.row) =
  match r.cmp with Gates.At_least -> Float.pred (limit r) | Gates.At_most -> Float.succ (limit r)

let alloc_baseline =
  [ ("psrs_sort", 781., 400275.); ("parallel_matmul", 51., 0.); ("event_heap_push_pop", 0., 0.) ]
let all_rows = Gates.table @ Gates.alloc_rows alloc_baseline

let committed_for r = doc r (Obs.Json.Float committed_value)

let test_table_pins_thresholds () =
  (* Every threshold, comparator and baseline kind the gates carry;
     a typo in the table fails here instead of silently loosening CI. *)
  let kind (r : Gates.row) =
    match r.baseline with
    | Gates.Const -> "const"
    | Gates.Committed -> "committed"
    | Gates.Kernel _ -> "kernel"
  in
  let shown =
    List.map
      (fun (r : Gates.row) ->
        (name r, (match r.cmp with Gates.At_least -> ">=" | Gates.At_most -> "<="), r.threshold, kind r))
      Gates.table
  in
  let expected =
    [
      ("serve_throughput.warm_over_cold", ">=", 10., "const");
      ("json_codec.compact_over_sprintf17", "<=", 0.5, "const");
      ("obs_overhead.overhead_ratio", "<=", 1.05, "const");
      ("obs_overhead.disabled_path_fraction", "<=", 0.01, "const");
      ("lint_time.full_over_per_file", "<=", 2., "const");
      ("lint_time.cold_over_warm", ">=", 5., "const");
      ("des_throughput.heap_ops_per_sec_1m", ">=", 0.9, "committed");
      ("des_throughput.mapreduce.events_per_sec", ">=", 0.9, "committed");
    ]
  in
  checkb "gate table" true (shown = expected);
  checkb "ratcheted kernels" true
    (Gates.ratcheted
    = [
        "scatter_partition_floats";
        "scatter_partition_pool";
        "psrs_sort";
        "histogram_splitters";
        "seg_sort_floats";
        "multicore_sort";
        "event_heap_push_pop";
        "response_to_line";
        "request_decode";
        "nonlinear_equal_finish";
      ])

let test_limit_is_inclusive () =
  List.iter
    (fun r ->
      let committed = committed_for r in
      checkb (name r ^ " passes at its limit") true
        (passes ~committed r (doc r (Obs.Json.Float (limit r))));
      checkb (name r ^ " fails just past it") false
        (passes ~committed r (doc r (Obs.Json.Float (just_past r)))))
    all_rows

let test_missing_or_nan_fails () =
  List.iter
    (fun r ->
      let committed = committed_for r in
      checkb (name r ^ " fails when missing") false
        (passes ~committed r (Obs.Json.Obj [ (r.Gates.section, Obs.Json.Obj []) ]));
      checkb (name r ^ " fails on NaN") false
        (passes ~committed r (doc r (Obs.Json.Float Float.nan))))
    all_rows

let test_committed_key_required () =
  List.iter
    (fun (r : Gates.row) ->
      if r.baseline = Gates.Committed then begin
        let fresh = doc r (Obs.Json.Float (2. *. committed_value)) in
        checkb (name r ^ " passes with the committed key") true
          (passes ~committed:(committed_for r) r fresh);
        checkb (name r ^ " fails without it") false
          (passes ~committed:(Obs.Json.Obj [ ("des_throughput", Obs.Json.Obj []) ]) r fresh)
      end)
    Gates.table

let test_alloc_ratchet_slack () =
  (* psrs_sort is ratcheted (+0%, 512 words); parallel_matmul is not
     (+10%, 4096 words): 600 words of growth fails only the ratchet. *)
  let row kernel =
    List.find
      (fun (r : Gates.row) -> r.path = [ kernel; "minor_words" ])
      (Gates.alloc_rows alloc_baseline)
  in
  let psrs = row "psrs_sort" and matmul = row "parallel_matmul" in
  checkb "ratcheted kernel refuses +600 words" false
    (passes psrs (doc psrs (Obs.Json.Float (781. +. 600.))));
  checkb "unratcheted kernel absorbs +600 words" true
    (passes matmul (doc matmul (Obs.Json.Float (51. +. 600.))));
  checkb "ratchet limit = base + 512" true (limit psrs = 781. +. 512.);
  checkb "zero-allocation heap ratchet allows 512 words" true
    (limit (row "event_heap_push_pop") = 512.);
  checkb "headroom limit = 1.1 base + 4096" true (limit matmul = (1.10 *. 51.) +. 4096.)

let test_alloc_baseline_round_trip () =
  let text = Gates.alloc_baseline_to_string alloc_baseline in
  checkb "round-trips" true (Gates.alloc_baseline_of_string text = alloc_baseline);
  checkb "plain data, no marker column" true
    (match Gates.alloc_baseline_of_string "psrs_sort 781 400275 ratchet\n" with
    | _ -> false
    | exception Failure _ -> true)

let suites =
  [
    ( "bench gates",
      [
        Alcotest.test_case "table pins the thresholds" `Quick test_table_pins_thresholds;
        Alcotest.test_case "limit is inclusive" `Quick test_limit_is_inclusive;
        Alcotest.test_case "missing or NaN fails" `Quick test_missing_or_nan_fails;
        Alcotest.test_case "committed key required" `Quick test_committed_key_required;
        Alcotest.test_case "alloc ratchet slack" `Quick test_alloc_ratchet_slack;
        Alcotest.test_case "alloc baseline round-trip" `Quick test_alloc_baseline_round_trip;
      ] );
  ]
