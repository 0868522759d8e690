(* Observability layer: JSON round-trips, span tracing invariants,
   per-domain metric sharding, the Chrome exporters, and the
   disabled-mode zero-allocation contract.

   The tracing/metrics flags are process-global, so every test that
   enables them restores the disabled default before returning —
   including on failure — to keep the rest of the run untouched. *)

module Json = Obs.Json
module Metrics = Obs.Metrics
module Trace = Obs.Trace
module Export = Obs.Export
module Hist = Obs.Hist
module Sample = Obs.Sample

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let with_tracing f =
  Trace.clear ();
  Trace.set_enabled true;
  Fun.protect ~finally:(fun () -> Trace.set_enabled false) f

let with_metrics f =
  Metrics.reset ();
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) f

let parse_exn s =
  match Json.of_string s with
  | Ok v -> v
  | Error msg -> Alcotest.failf "JSON parse error: %s" msg

(* --- Json -------------------------------------------------------------- *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("null", Json.Null);
        ("flag", Json.Bool true);
        ("count", Json.Int (-42));
        ("ratio", Json.Float 1.5);
        ("text", Json.String "line\n\"quoted\"\ttab");
        ("items", Json.List [ Json.Int 1; Json.Float 2.25; Json.String "x" ]);
        ("empty_list", Json.List []);
        ("empty_obj", Json.Obj []);
      ]
  in
  checkb "round-trips" true (parse_exn (Json.to_string doc) = doc)

let test_json_member () =
  let doc = parse_exn {|{"a": {"b": 7}, "c": [1, 2]}|} in
  (match Json.member "a" doc with
  | Some inner -> checkb "nested member" true (Json.member "b" inner = Some (Json.Int 7))
  | None -> Alcotest.fail "member a missing");
  checkb "missing key" true (Json.member "zzz" doc = None);
  checkb "non-object" true (Json.member "a" (Json.Int 3) = None)

let test_json_rejects_garbage () =
  let bad = [ ""; "{"; "[1,]"; "{\"a\" 1}"; "tru"; "\"unterminated"; "1 2" ] in
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted malformed input %S" s
      | Error _ -> ())
    bad

(* --- Trace ------------------------------------------------------------- *)

let test_trace_disabled_records_nothing () =
  Trace.clear ();
  Trace.begin_span "ghost";
  Trace.end_span "ghost";
  Trace.instant "ghost";
  checki "no events while disabled" 0 (List.length (Trace.events ()))

let test_trace_balanced_and_monotonic () =
  with_tracing (fun () ->
      for _ = 1 to 50 do
        Trace.begin_span "outer";
        Trace.begin_span "inner";
        Trace.instant "tick";
        Trace.end_span "inner";
        Trace.end_span "outer"
      done);
  let evs = Trace.events () in
  checki "5 events per iteration" 250 (List.length evs);
  let begins =
    List.length (List.filter (fun (e : Trace.event) -> e.kind = Trace.Begin) evs)
  in
  let ends =
    List.length (List.filter (fun (e : Trace.event) -> e.kind = Trace.End) evs)
  in
  checki "balanced begin/end" begins ends;
  let sorted = ref true in
  let _ =
    List.fold_left
      (fun prev (e : Trace.event) ->
        if e.ts_ns < prev then sorted := false;
        e.ts_ns)
      min_int evs
  in
  checkb "timestamps monotone" true !sorted;
  checki "nothing dropped" 0 (Trace.dropped ());
  Trace.clear ();
  checki "clear empties buffers" 0 (List.length (Trace.events ()))

let test_trace_ring_wraps_not_grows () =
  (* Overfill one domain's ring: old events are overwritten, the
     collection never exceeds the capacity, and the loss is counted. *)
  with_tracing (fun () ->
      for _ = 1 to 20_000 do
        Trace.instant "spin"
      done);
  let kept = List.length (Trace.events ()) in
  checki "capacity-bounded" 16384 kept;
  checkb "drop counter saw the rest" true (Trace.dropped () >= 20_000 - 16384);
  Trace.clear ()

(* --- Metrics ----------------------------------------------------------- *)

let test_metrics_disabled_noop () =
  Metrics.reset ();
  let c = Metrics.counter "obs_test.noop" in
  Metrics.incr_counter c;
  Metrics.add c 41;
  let snap = Metrics.snapshot () in
  checkb "stays zero while disabled" true
    (List.assoc_opt "obs_test.noop" snap.Metrics.counters = Some 0)

let test_metrics_counter_sums () =
  let c = Metrics.counter "obs_test.events" in
  with_metrics (fun () ->
      for _ = 1 to 100 do
        Metrics.incr_counter c
      done);
  let snap = Metrics.snapshot () in
  checkb "counter sums" true (List.assoc_opt "obs_test.events" snap.Metrics.counters = Some 100)

let test_metrics_registration_idempotent () =
  let a = Metrics.counter "obs_test.same" in
  let b = Metrics.counter "obs_test.same" in
  with_metrics (fun () ->
      Metrics.incr_counter a;
      Metrics.incr_counter b);
  let snap = Metrics.snapshot () in
  checkb "one counter, two handles" true
    (List.assoc_opt "obs_test.same" snap.Metrics.counters = Some 2);
  checki "registered once" 1
    (List.length
       (List.filter (fun (n, _) -> n = "obs_test.same") snap.Metrics.counters))

let test_metrics_sharded_merge_matches_sequential () =
  (* The per-domain shards must merge to exactly the sequential count,
     whatever the domain count.  The host may have one CPU, so the
     domain counts are forced, not detected. *)
  let c = Metrics.counter "obs_test.sharded" in
  let n = 10_000 in
  List.iter
    (fun domains ->
      Metrics.reset ();
      let pool = Exec.Pool.create ~domains () in
      Fun.protect
        ~finally:(fun () -> Exec.Pool.teardown pool)
        (fun () ->
          with_metrics (fun () ->
              Exec.Pool.parallel_for pool n (fun _ -> Metrics.incr_counter c)));
      let snap = Metrics.snapshot () in
      checkb
        (Printf.sprintf "merge equals sequential at %d domains" domains)
        true
        (List.assoc_opt "obs_test.sharded" snap.Metrics.counters = Some n))
    [ 1; 2; 3 ]

(* --- disabled-mode allocation contract --------------------------------- *)

let minor_words_of f =
  Gc.full_major ();
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_disabled_zero_allocation () =
  Trace.set_enabled false;
  Metrics.set_enabled false;
  Hist.set_enabled false;
  let c = Metrics.counter "obs_test.alloc" in
  let h = Hist.create "obs_test.alloc_h" in
  (* Warm-up: DLS shards, ring buffers and any lazy setup. *)
  Trace.begin_span "warm";
  Trace.end_span "warm";
  Metrics.incr_counter c;
  Hist.record h 1;
  let words =
    minor_words_of (fun () ->
        for i = 1 to 10_000 do
          Trace.begin_span "hot";
          Trace.instant "hot";
          Trace.end_span "hot";
          Metrics.incr_counter c;
          Metrics.add c 2;
          Hist.record h i
        done)
  in
  checkb
    (Printf.sprintf "disabled path allocates nothing (%.0f minor words)" words)
    true (words = 0.)

let test_enabled_recording_allocation_free () =
  (* Enabled-mode span recording is also allocation-free: preallocated
     rings, literal names stored by reference, noalloc clock. *)
  with_tracing (fun () ->
      Trace.begin_span "warm";
      Trace.end_span "warm";
      let words =
        minor_words_of (fun () ->
            for _ = 1 to 10_000 do
              Trace.begin_span "hot";
              Trace.end_span "hot"
            done)
      in
      checkb
        (Printf.sprintf "enabled spans allocate nothing (%.0f minor words)" words)
        true (words = 0.));
  Trace.clear ()

(* --- exporters --------------------------------------------------------- *)

let test_export_trace_json_valid () =
  with_tracing (fun () ->
      Trace.begin_span "phase_a";
      Trace.instant "marker";
      Trace.end_span "phase_a");
  let doc = parse_exn (Json.to_string (Export.trace_json ())) in
  Trace.clear ();
  match doc with
  | Json.List events ->
      checkb "has events" true (List.length events >= 5);
      (* process_name + at least one thread_name metadata, then B/i/E. *)
      let phases =
        List.filter_map
          (fun e ->
            match Json.member "ph" e with Some (Json.String p) -> Some p | _ -> None)
          events
      in
      checki "every event has a phase" (List.length events) (List.length phases);
      checkb "metadata present" true (List.mem "M" phases);
      checkb "duration events present" true (List.mem "B" phases && List.mem "E" phases);
      checkb "instant present" true (List.mem "i" phases);
      List.iter
        (fun e ->
          (match Json.member "ts" e with
          | Some (Json.Float ts) -> checkb "ts rebased near zero" true (ts >= 0.)
          | Some (Json.Int ts) -> checkb "ts rebased near zero" true (ts >= 0)
          | None -> (* metadata events carry no ts *) ()
          | Some _ -> Alcotest.fail "ts has a non-numeric type");
          checkb "pid constant" true (Json.member "pid" e = Some (Json.Int 1)))
        events
  | _ -> Alcotest.fail "trace is not a top-level JSON array"

let test_export_metrics_json () =
  let c = Metrics.counter "obs_test.export" in
  with_metrics (fun () -> Metrics.add c 5);
  let doc = parse_exn (Json.to_string (Export.metrics_json ())) in
  match Json.member "counters" doc with
  | Some counters ->
      checkb "exported counter value" true
        (Json.member "obs_test.export" counters = Some (Json.Int 5))
  | None -> Alcotest.fail "no counters object"

let test_des_trace_bridge () =
  let t = Des.Trace.create () in
  Des.Trace.record t ~resource:"w0" ~start:0. ~finish:1.5 ~label:"compute";
  Des.Trace.record t ~resource:"w1" ~start:0.5 ~finish:2. ~label:"";
  let doc = parse_exn (Json.to_string (Des.Trace.to_chrome t)) in
  match doc with
  | Json.List events ->
      (* 1 trace_stats + 1 process_name + 2 thread_name + 2 complete events. *)
      checki "event count" 6 (List.length events);
      (match
         List.find_opt
           (fun e -> Json.member "name" e = Some (Json.String "trace_stats"))
           events
       with
      | None -> Alcotest.fail "no trace_stats metadata event"
      | Some stats -> (
          match Json.member "args" stats with
          | Some args ->
              checkb "recorded count" true
                (Json.member "recorded" args = Some (Json.Int 2));
              checkb "nothing sampled out" true
                (Json.member "sampled_out" args = Some (Json.Int 0))
          | None -> Alcotest.fail "trace_stats has no args"));
      let completes =
        List.filter (fun e -> Json.member "ph" e = Some (Json.String "X")) events
      in
      checki "one X event per interval" 2 (List.length completes);
      checkb "unlabeled interval falls back to the resource name" true
        (List.exists (fun e -> Json.member "name" e = Some (Json.String "w1")) completes);
      checkb "duration in microseconds" true
        (List.exists
           (fun e -> Json.member "dur" e = Some (Json.Float 1.5e6))
           completes)
  | _ -> Alcotest.fail "bridge output is not a JSON array"

(* --- Hist: log2/HDR histograms ----------------------------------------- *)

let with_hists f =
  Hist.reset ();
  Hist.set_enabled true;
  Fun.protect ~finally:(fun () -> Hist.set_enabled false) f

let test_hist_bucket_geometry () =
  (* Every probe value lands in a bucket that contains it; values below
     32 are counted exactly; larger buckets are never wider than 1/32
     of their lower bound (the quantile error bound). *)
  let probes =
    List.init 2048 (fun i -> i)
    @ List.concat_map
        (fun e ->
          let p = 1 lsl e in
          [ p - 1; p; p + 1 ])
        (List.init 57 (fun i -> i + 5))
    @ [ max_int - 1; max_int ]
  in
  List.iter
    (fun v ->
      let b = Hist.bucket_of v in
      checkb "index in range" true (b >= 0 && b < Hist.n_buckets);
      let lo = Hist.bucket_lo b and hi = Hist.bucket_hi b in
      checkb (Printf.sprintf "bucket contains %d" v) true (lo <= v && v <= hi);
      if v < 32 then checkb "small values exact" true (lo = v && hi = v)
      else checkb (Printf.sprintf "width bound at %d" v) true ((hi - lo) * 32 <= lo))
    probes;
  (* Buckets tile the axis: consecutive indices meet with no gap. *)
  for b = 0 to 300 do
    checki "buckets contiguous" (Hist.bucket_hi b + 1) (Hist.bucket_lo (b + 1))
  done

let test_hist_summary_exact_stats () =
  let h = Hist.create "obs_test.hist_stats" in
  with_hists (fun () ->
      List.iter (Hist.record h) [ 0; 1; 31; 32; 1000; 123_456_789 ];
      Hist.record h (-5) (* clamps to 0 *));
  let s = Hist.snapshot_one h in
  checki "count" 7 s.Hist.count;
  checki "sum (negative clamped)" 123_457_853 s.Hist.sum;
  checki "tracked min" 0 s.Hist.min_v;
  checki "tracked max" 123_456_789 s.Hist.max_v;
  checki "q=0 is exact min" 0 (Hist.quantile s 0.);
  checki "q=1 is exact max" 123_456_789 (Hist.quantile s 1.)

let test_hist_disabled_records_nothing () =
  Hist.reset ();
  Hist.set_enabled false;
  let h = Hist.create "obs_test.hist_off" in
  Hist.record h 7;
  checki "stays empty while disabled" 0 (Hist.snapshot_one h).Hist.count

let qcheck_hist_quantile_error_bound =
  QCheck.Test.make ~name:"quantile within one bucket width of exact" ~count:60
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 400) (int_bound 1_000_000_000))
        (float_range 0.01 0.99))
    (fun (samples, q) ->
      let h = Hist.create "obs_test.hist_q" in
      Hist.reset ();
      Hist.set_enabled true;
      Fun.protect
        ~finally:(fun () -> Hist.set_enabled false)
        (fun () ->
          List.iter (Hist.record h) samples;
          let s = Hist.snapshot_one h in
          let sorted = List.sort compare samples in
          let n = List.length sorted in
          let rank =
            max 1 (int_of_float (Float.round (ceil (q *. float_of_int n))))
          in
          let exact = List.nth sorted (rank - 1) in
          let est = Hist.quantile s q in
          (* Never below the true sample; overshoot bounded by one
             bucket width, i.e. exact/32 (+1 for integer rounding). *)
          exact <= est && est <= exact + (exact / 32) + 1))

let test_hist_sharded_merge_matches_sequential () =
  let h = Hist.create "obs_test.hist_sharded" in
  let n = 10_000 in
  List.iter
    (fun domains ->
      Hist.reset ();
      let pool = Exec.Pool.create ~domains () in
      Fun.protect
        ~finally:(fun () -> Exec.Pool.teardown pool)
        (fun () ->
          with_hists (fun () ->
              Exec.Pool.parallel_for pool n (fun i -> Hist.record h (i land 255))));
      let s = Hist.snapshot_one h in
      checkb
        (Printf.sprintf "merge equals sequential at %d domains" domains)
        true
        (s.Hist.count = n
        && s.Hist.max_v = 255
        && Array.fold_left ( + ) 0 s.Hist.counts = n))
    [ 1; 2; 3 ]

let test_hist_recording_allocation_free () =
  (* Both the gated [record] and the hoisted-shard [record_into] paths
     must allocate nothing once the domain's shard exists. *)
  let h = Hist.create "obs_test.hist_alloc" in
  with_hists (fun () ->
      Hist.record h 1 (* warm-up: creates this domain's shard *);
      let sh = Hist.shard h in
      let words =
        minor_words_of (fun () ->
            for i = 1 to 10_000 do
              Hist.record h i;
              Hist.record_into sh (i * 977)
            done)
      in
      checkb
        (Printf.sprintf "enabled hist records allocate nothing (%.0f minor words)"
           words)
        true (words = 0.));
  Hist.reset ()

(* --- Sample: deterministic every-k --------------------------------------- *)

let test_sample_every () =
  let s = Sample.every 3 in
  let kept =
    List.filteri (fun _ _ -> Sample.keep s) (List.init 10 (fun i -> i))
  in
  checkb "keeps 0,3,6,9" true (kept = [ 0; 3; 6; 9 ]);
  checki "kept accounting" 4 (Sample.kept s);
  let all = Sample.every 1 in
  let kept_all = List.filter (fun _ -> Sample.keep all) (List.init 5 (fun i -> i)) in
  checki "every 1 keeps everything" 5 (List.length kept_all);
  checkb "k < 1 rejected" true
    (match Sample.every 0 with exception Invalid_argument _ -> true | _ -> false)

(* --- bounded export accounting ----------------------------------------- *)

let test_export_budget_and_stats () =
  with_tracing (fun () ->
      for _ = 1 to 100 do
        Trace.instant "spin"
      done);
  let doc = parse_exn (Json.to_string (Export.trace_json ~max_events:20 ())) in
  Trace.clear ();
  match doc with
  | Json.List events ->
      let stats =
        match
          List.find_opt
            (fun e -> Json.member "name" e = Some (Json.String "trace_stats"))
            events
        with
        | Some s -> Option.get (Json.member "args" s)
        | None -> Alcotest.fail "no trace_stats event"
      in
      let arg k =
        match Json.member k stats with
        | Some (Json.Int i) -> i
        | _ -> Alcotest.failf "trace_stats missing %s" k
      in
      checki "recorded" 100 (arg "recorded");
      checki "sample_every = ceil(100/20)" 5 (arg "sample_every");
      checki "emitted" 20 (arg "emitted");
      checki "sampled_out" 80 (arg "sampled_out");
      checki "nothing ring-dropped" 0 (arg "dropped");
      let body =
        List.filter (fun e -> Json.member "ph" e = Some (Json.String "i")) events
      in
      checki "body fits the budget" 20 (List.length body)
  | _ -> Alcotest.fail "trace is not a JSON array"

(* Both bounded exporters take their stride from [Sample.stride]: at the
   tightest budgets the artifact still fits, the trace_stats counts add
   up, and a budget below 1 is refused rather than half-honoured. *)
let test_export_budgets_fit () =
  let stats_of doc =
    match doc with
    | Json.List events ->
        let stats =
          List.find
            (fun e -> Json.member "name" e = Some (Json.String "trace_stats"))
            events
        in
        let arg k =
          match Option.bind (Json.member "args" stats) (Json.member k) with
          | Some (Json.Int i) -> i
          | _ -> Alcotest.failf "trace_stats missing %s" k
        in
        let body ph =
          List.length (List.filter (fun e -> Json.member "ph" e = Some (Json.String ph)) events)
        in
        (arg, body)
    | _ -> Alcotest.fail "trace is not a JSON array"
  in
  let check_fits what ~n ~budget ~ph doc =
    let arg, body = stats_of doc in
    let label s = Printf.sprintf "%s budget %d: %s" what budget s in
    checki (label "recorded") n (arg "recorded");
    checkb (label "emitted <= budget") true (arg "emitted" <= budget);
    checki (label "emitted = body") (arg "emitted") (body ph);
    checki (label "recorded = sampled_out + emitted + dropped") n
      (arg "sampled_out" + arg "emitted" + arg "dropped");
    checki (label "sample_every = stride") (Sample.stride ~budget n) (arg "sample_every")
  in
  let rejects f =
    List.for_all
      (fun budget -> match f budget with exception Invalid_argument _ -> true | _ -> false)
      [ 0; -3 ]
  in
  let n = 7 in
  let t = Des.Trace.create () in
  for i = 0 to n - 1 do
    Des.Trace.record t ~resource:(Printf.sprintf "w%d" (i mod 2)) ~start:(float_of_int i)
      ~finish:(float_of_int (i + 1)) ~label:"x"
  done;
  List.iter
    (fun budget ->
      check_fits "Des.Trace" ~n ~budget ~ph:"X" (Des.Trace.to_chrome ~max_events:budget t))
    [ 1; 2; n - 1 ];
  checkb "Des.Trace refuses budgets < 1" true
    (rejects (fun budget -> Des.Trace.to_chrome ~max_events:budget t));
  let n = 100 in
  with_tracing (fun () ->
      for _ = 1 to n do
        Trace.instant "spin"
      done);
  Fun.protect ~finally:Trace.clear (fun () ->
      List.iter
        (fun budget ->
          check_fits "Export.trace_json" ~n ~budget ~ph:"i"
            (Export.trace_json ~max_events:budget ()))
        [ 1; 2; n - 1 ];
      checkb "Export.trace_json refuses budgets < 1" true
        (rejects (fun budget -> Export.trace_json ~max_events:budget ())))

let test_export_metrics_hists_and_trace_sections () =
  let h = Hist.create "obs_test.hist_export" in
  with_hists (fun () ->
      with_tracing (fun () ->
          Trace.instant "blip";
          for i = 1 to 100 do
            Hist.record h i
          done;
          let doc = parse_exn (Json.to_string (Export.metrics_json ())) in
          (match Json.member "hists" doc with
          | Some hists -> (
              match Json.member "obs_test.hist_export" hists with
              | Some hj ->
                  checkb "count exported" true
                    (Json.member "count" hj = Some (Json.Int 100));
                  checkb "quantiles present" true (Json.member "quantiles" hj <> None);
                  (match Json.member "buckets" hj with
                  | Some (Json.List bs) ->
                      checkb "only non-zero buckets exported" true
                        (List.length bs > 0 && List.length bs < 110)
                  | _ -> Alcotest.fail "hist buckets missing")
              | None -> Alcotest.fail "registered hist missing from hists")
          | None -> Alcotest.fail "no hists section");
          match Json.member "trace" doc with
          | Some tr ->
              checkb "trace recorded count" true
                (match Json.member "recorded" tr with
                | Some (Json.Int n) -> n >= 1
                | _ -> false);
              checkb "per-domain drops surfaced" true
                (Json.member "dropped_per_domain" tr <> None)
          | None -> Alcotest.fail "no trace section"));
  Trace.clear ();
  Hist.reset ()

let test_pool_submit_latency_in_hists () =
  (* Exec.Pool records each submission's latency into Obs.Hist, so it
     surfaces under "hists" in every --metrics snapshot. *)
  let pool = Exec.Pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Exec.Pool.teardown pool)
    (fun () ->
      with_hists (fun () ->
          for _ = 1 to 5 do
            Exec.Pool.parallel_for pool 4 (fun _ -> ())
          done;
          let doc = parse_exn (Json.to_string (Export.metrics_json ())) in
          match Option.bind (Json.member "hists" doc) (Json.member "pool.submit_latency_ns") with
          | Some hj ->
              checkb "five submissions recorded" true
                (Json.member "count" hj = Some (Json.Int 5))
          | None -> Alcotest.fail "pool.submit_latency_ns missing from hists"));
  Hist.reset ()

(* --- DES / MapReduce instrumentation ------------------------------------ *)

let test_scheduler_instrumentation_counts () =
  Metrics.reset ();
  Hist.reset ();
  Metrics.set_enabled true;
  Hist.set_enabled true;
  let result, _ =
    Fun.protect
      ~finally:(fun () ->
        Metrics.set_enabled false;
        Hist.set_enabled false)
      (fun () -> Experiments.Mrsim_exp.run ~workers:50 ~tasks:200 ())
  in
  let snap = Metrics.snapshot () in
  let counter name =
    match List.assoc_opt name snap.Metrics.counters with
    | Some v -> v
    | None -> Alcotest.failf "counter %s missing" name
  in
  let by_tag =
    List.map counter
      [
        "mapreduce.events.free";
        "mapreduce.events.done";
        "mapreduce.events.crash";
        "mapreduce.events.recover";
        "mapreduce.events.retry";
      ]
  in
  checki "per-type counts sum to events_processed"
    result.Experiments.Mrsim_exp.events
    (List.fold_left ( + ) 0 by_tag);
  checkb "completions dominate" true (counter "mapreduce.events.done" >= 200);
  let hist_count name =
    match
      List.find_opt (fun (s : Hist.summary) -> s.Hist.s_name = name) (Hist.snapshot ())
    with
    | Some s -> s.Hist.count
    | None -> Alcotest.failf "hist %s missing" name
  in
  checkb "service latency per completed task" true
    (hist_count "mapreduce.task_service_s" >= 200);
  checkb "wait latency per dispatch" true (hist_count "mapreduce.task_wait_s" >= 200);
  checkb "heap depth sampled" true (hist_count "mapreduce.heap_size" > 0);
  (match List.assoc_opt "mapreduce.heap_hwm" snap.Metrics.gauges with
  | Some v -> checkb "heap high-water gauge set" true (v > 0.)
  | None -> Alcotest.fail "heap_hwm gauge missing");
  Metrics.reset ();
  Hist.reset ()

let test_timeline_sampling_domain_independent () =
  (* The downsampled sim-time Gantt must be a pure function of the
     seeded simulation: running the producing trial inside pools of
     1, 2 and 4 domains (instrumentation enabled) yields byte-identical
     exports. *)
  let timeline_at domains =
    let pool = Exec.Pool.create ~domains () in
    Fun.protect
      ~finally:(fun () -> Exec.Pool.teardown pool)
      (fun () ->
        let out = Array.make 1 "" in
        Metrics.reset ();
        Hist.reset ();
        Metrics.set_enabled true;
        Hist.set_enabled true;
        Fun.protect
          ~finally:(fun () ->
            Metrics.set_enabled false;
            Hist.set_enabled false)
          (fun () ->
            Exec.Pool.parallel_for pool 1 (fun _ ->
                let _, outcome =
                  Experiments.Mrsim_exp.run ~workers:40 ~tasks:160 ()
                in
                out.(0) <-
                  Json.to_string (Des.Trace.to_chrome ~max_events:64 (Mapreduce.Timeline.trace outcome))));
        out.(0))
  in
  let t1 = timeline_at 1 in
  let t2 = timeline_at 2 in
  let t4 = timeline_at 4 in
  checkb "sampled timeline is downsampled" true
    (match parse_exn t1 with
    | Json.List evs ->
        List.exists
          (fun e -> Json.member "name" e = Some (Json.String "trace_stats"))
          evs
    | _ -> false);
  checkb "1 = 2 domains" true (String.equal t1 t2);
  checkb "2 = 4 domains" true (String.equal t2 t4)

let suites =
  [
    ( "obs json",
      [
        Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
        Alcotest.test_case "member access" `Quick test_json_member;
        Alcotest.test_case "rejects malformed" `Quick test_json_rejects_garbage;
      ] );
    ( "obs trace",
      [
        Alcotest.test_case "disabled records nothing" `Quick
          test_trace_disabled_records_nothing;
        Alcotest.test_case "balanced and monotonic" `Quick
          test_trace_balanced_and_monotonic;
        Alcotest.test_case "ring wraps, never grows" `Quick
          test_trace_ring_wraps_not_grows;
      ] );
    ( "obs metrics",
      [
        Alcotest.test_case "disabled no-op" `Quick test_metrics_disabled_noop;
        Alcotest.test_case "counter sums" `Quick test_metrics_counter_sums;
        Alcotest.test_case "registration idempotent" `Quick
          test_metrics_registration_idempotent;
        Alcotest.test_case "sharded merge = sequential" `Quick
          test_metrics_sharded_merge_matches_sequential;
      ] );
    ( "obs allocation",
      [
        Alcotest.test_case "disabled path allocates zero" `Quick
          test_disabled_zero_allocation;
        Alcotest.test_case "enabled spans allocate zero" `Quick
          test_enabled_recording_allocation_free;
      ] );
    ( "obs hist",
      [
        Alcotest.test_case "bucket geometry" `Quick test_hist_bucket_geometry;
        Alcotest.test_case "exact count/sum/min/max" `Quick
          test_hist_summary_exact_stats;
        Alcotest.test_case "disabled no-op" `Quick test_hist_disabled_records_nothing;
        QCheck_alcotest.to_alcotest qcheck_hist_quantile_error_bound;
        Alcotest.test_case "sharded merge = sequential" `Quick
          test_hist_sharded_merge_matches_sequential;
        Alcotest.test_case "enabled records allocate zero" `Quick
          test_hist_recording_allocation_free;
      ] );
    ("obs sample", [ Alcotest.test_case "every-k systematic" `Quick test_sample_every ]);
    ( "obs export",
      [
        Alcotest.test_case "trace-event JSON valid" `Quick test_export_trace_json_valid;
        Alcotest.test_case "metrics JSON" `Quick test_export_metrics_json;
        Alcotest.test_case "Des.Trace bridge" `Quick test_des_trace_bridge;
        Alcotest.test_case "budget sampling accounted" `Quick
          test_export_budget_and_stats;
        Alcotest.test_case "budgets 1, 2, n-1 fit" `Quick test_export_budgets_fit;
        Alcotest.test_case "hists and trace sections" `Quick
          test_export_metrics_hists_and_trace_sections;
        Alcotest.test_case "pool submit latency in hists" `Quick
          test_pool_submit_latency_in_hists;
      ] );
    ( "obs instrumentation",
      [
        Alcotest.test_case "scheduler event counts" `Quick
          test_scheduler_instrumentation_counts;
        Alcotest.test_case "timeline domain-independent" `Quick
          test_timeline_sampling_domain_independent;
      ] );
  ]
