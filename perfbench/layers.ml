(* The traced per-layer ledger ([--trace 1]).  Every workload's layers
   are timed from here, around calls into each layer's public
   functions; nothing inside the library is added.  Each workload runs
   untraced and traced blocks of the same work, so the ledger also
   gives the tracing overhead. *)

module Rng = Numerics.Rng
module Json = Obs.Json

let now_ns = Obs.Clock.now_ns
let deadline seconds = now_ns () + int_of_float (seconds *. 1e9)

let obs_on b =
  Obs.Metrics.set_enabled b;
  Obs.Hist.set_enabled b;
  Obs.Trace.set_enabled b

(* Checks made during the traced run: every reply, output and
   cross-check counts. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

let check ok =
  tally.attempted <- tally.attempted + 1;
  if not ok then tally.failed <- tally.failed + 1

(* One reconciliation row: the sum of the layer medians against the
   end-to-end median of the same work, and the tracing overhead. *)
type recon = { workload : string; layers : float; e2e : float; unit : string; overhead : float }

let recons : recon list ref = ref []
let ms ns = ns /. 1e6
let us ns = ns /. 1e3
let m = Stat.metric
let counted name = Printf.sprintf "median of %d" (Spans.count name)

let overhead_metric w frac =
  m ("obs.overhead_frac." ^ w) "ratio" frac ~note:"traced over untraced time, minus 1"

(* --- sortlib / kernels / exec / numerics ------------------------------ *)

(* The same pipeline as [Sortlib.Multicore.sort], one public call per
   stage. *)
let sort_stages (t : Sort_bench.t) pool =
  let n = Sort_bench.n and p = Sort_bench.p in
  let rng = Rng.create ~seed:t.splitter_seed () in
  let s = Sortlib.Sample_sort.default_oversampling ~n in
  let splitters =
    Spans.time "sort.splitters" (fun () ->
        Sortlib.Sample_sort.choose_splitters_floats rng t.keys ~p ~s)
  in
  let flat =
    Spans.time "sort.scatter" (fun () ->
        Kernels.Scatter.partition_floats_pool ~workers:Sort_bench.domains pool t.keys ~splitters)
  in
  let module S = Kernels.Scatter in
  Spans.time "sort.local_sort" (fun () ->
      Numerics.Parallel.parallel_for ~domains:Sort_bench.domains (S.num_buckets flat) (fun b ->
          Kernels.Seg_sort.sort_floats flat.S.data ~lo:(S.bucket_lo flat b) ~len:(S.bucket_len flat b)));
  let largest = Array.fold_left max 0 (S.bucket_sizes flat) in
  (flat.S.data, float_of_int largest /. (float_of_int n /. float_of_int p))

let sort_multicore ~seed ~share ~corrupt =
  let t = Sort_bench.setup ~seed in
  let pool = Exec.Pool.get_global ~at_least:Sort_bench.domains () in
  let dispatch () = Exec.Pool.parallel_for pool Sort_bench.domains (fun _ -> ()) in
  for _ = 1 to 100 do dispatch () done;
  for _ = 1 to 2000 do Spans.time "exec.pool.dispatch" dispatch done;
  let subs = Stat.samples () and bucket_ratio = ref 0. in
  let until = deadline share in
  let r = ref 0 in
  while now_ns () < until || !r < 5 do
    obs_on false;
    let before = (Exec.Pool.stats pool).submissions in
    let out = Spans.time "sort.untraced" (fun () -> Sort_bench.call t) in
    Stat.add subs (float_of_int ((Exec.Pool.stats pool).submissions - before));
    check (Sort_bench.correct ~corrupt t out);
    obs_on true;
    check (Sort_bench.correct ~corrupt t (Spans.time "sort.call" (fun () -> Sort_bench.call t)));
    let out, ratio = sort_stages t pool in
    check (Sort_bench.correct ~corrupt t out);
    bucket_ratio := ratio;
    obs_on false;
    incr r
  done;
  let med = Spans.median_ns in
  let stages = [ "sort.splitters"; "sort.scatter"; "sort.local_sort" ] in
  let sum = List.fold_left (fun acc s -> acc +. med s) 0. stages in
  let call = med "sort.call" in
  let log_ratio = log (float_of_int Sort_bench.p) /. log (float_of_int Sort_bench.n) in
  let overhead = (call /. med "sort.untraced") -. 1. in
  recons :=
    { workload = "sort_multicore"; layers = ms sum; e2e = ms call; unit = "ms"; overhead } :: !recons;
  [
    m "sort.splitters_ms" "ms" (ms (med "sort.splitters")) ~note:(counted "sort.splitters");
    m "sort.scatter_ms" "ms" (ms (med "sort.scatter")) ~note:(counted "sort.scatter");
    m "sort.local_sort_ms" "ms" (ms (med "sort.local_sort")) ~note:(counted "sort.local_sort");
    m "sort.unattributed_ms" "ms" (ms (call -. sum))
      ~note:(Printf.sprintf "call median %.2f ms minus the stage medians" (ms call));
    m "sort.nondivisible_share" "ratio" (med "sort.splitters" /. call)
      ~note:(Printf.sprintf "sampling+splitters over the call; log p / log N = %.3f" log_ratio);
    m "sort.max_bucket_ratio" "ratio" !bucket_ratio ~note:"largest bucket over N/p";
    m "kernels.scatter.bytes_computed" "B"
      (float_of_int (3 * 8 * Sort_bench.n))
      ~note:"computed from array sizes: two reads and one write of N float64";
    m "exec.pool.submissions.sort_multicore" "1/call" (Stat.median subs) ~note:"pool submissions per sort call";
    m "exec.pool.dispatch_us" "us" (us (med "exec.pool.dispatch"))
      ~note:(counted "exec.pool.dispatch" ^ " empty-body parallel_for on 2 domains");
    overhead_metric "sort_multicore" overhead;
  ]

(* --- mapreduce / des / fault ------------------------------------------ *)

let heap_hwm () =
  match List.assoc_opt "mapreduce.heap_hwm" (Obs.Metrics.snapshot ()).gauges with
  | Some v when Float.is_finite v -> int_of_float v
  | _ -> failwith "mapreduce.heap_hwm gauge not set by a traced run"

let mrsim_faults ~seed ~share ~corrupt =
  let t = Mr_bench.setup ~seed in
  for _ = 1 to 5 do ignore (Spans.time "fault.plan" (fun () -> Mr_bench.plan ~seed)) done;
  let until = deadline share in
  let r = ref 0 and last = ref None and hwm = ref 0 in
  while now_ns () < until || !r < 2 do
    obs_on false;
    check (Mr_bench.correct ~corrupt t (Spans.time "mr.untraced" (fun () -> Mr_bench.run t)));
    obs_on true;
    let o = Spans.time "mr.run" (fun () -> Mr_bench.run t) in
    check (Mr_bench.correct ~corrupt t o);
    hwm := heap_hwm ();
    obs_on false;
    (* The same number of pushes and pops on a heap of the run's peak
       size: the heap's share of the run. *)
    let h = Des.Event_heap.create ~initial_capacity:!hwm () in
    Des.Event_heap.exercise h ~rounds:1 ~batch:!hwm;
    Spans.time "des.heap_replay" (fun () ->
        Des.Event_heap.exercise h ~rounds:(max 1 (o.events_processed / !hwm)) ~batch:!hwm);
    last := Some o;
    incr r
  done;
  let o = Option.get !last in
  let med = Spans.median_ns in
  let run = med "mr.run" and heap = med "des.heap_replay" in
  let copies = List.length o.assignments and attempts = Array.fold_left ( + ) 0 o.attempts in
  let overhead = (run /. med "mr.untraced") -. 1. in
  recons := { workload = "mrsim_faults"; layers = ms run; e2e = ms run; unit = "ms"; overhead } :: !recons;
  let count name v = m name "count" (float_of_int v) ~note:"exact, per simulation" in
  [
    m "fault.plan_ms" "ms" (ms (med "fault.plan")) ~note:(counted "fault.plan");
    m "mr.run_ms" "ms" (ms run) ~note:(counted "mr.run");
    count "mr.events" o.events_processed;
    count "mr.retries" o.retries;
    count "mr.crashes_survived" o.crashes_survived;
    count "mr.duplicates" o.duplicates;
    m "mr.useful_ratio" "ratio" (float_of_int copies /. float_of_int attempts)
      ~note:(Printf.sprintf "%d completed copies of %d attempts" copies attempts);
    m "des.heap_hwm" "count" (float_of_int !hwm) ~note:"mapreduce.heap_hwm gauge";
    m "des.heap_replay_ms" "ms" (ms heap)
      ~note:(Printf.sprintf "%s, Event_heap.exercise at the high-water size" (counted "des.heap_replay"));
    m "mr.handler_ms_est" "ms" (ms (run -. heap)) ~note:"run minus heap replay";
    overhead_metric "mrsim_faults" overhead;
  ]

(* --- serve / api ------------------------------------------------------- *)

let num_at path j =
  let rec go j = function
    | [] -> ( match j with Json.Int i -> float_of_int i | Json.Float f -> f | _ -> nan)
    | k :: rest -> ( match Json.member k j with Some v -> go v rest | None -> nan)
  in
  go j path

let tally_block (b : Serve_bench.block) =
  tally.attempted <- tally.attempted + Serve_bench.attempted b;
  tally.failed <- tally.failed + b.failed

(* The hot stream as the traced daemon saw it (its warm-up pass, then
   the timed block), replayed through [Serve.Cache] to split the
   daemon's hit count into memo and fingerprint hits. *)
let hot_replay (h : Serve_bench.hot) ~expected (b : Serve_bench.block) =
  let spellings = h.traffic.Traffic.spellings in
  let warm = List.init Serve_bench.hot_distinct (fun q -> q * Traffic.n_spellings) in
  let ids = warm @ List.rev (List.of_seq (Stack.to_seq b.sent)) in
  let cache = Serve.Cache.create ~capacity:1024 in
  let memo = ref 0 and fp = ref 0 and miss = ref 0 in
  List.iter
    (fun s ->
      let raw = spellings.(s) in
      match Serve.Cache.find_memo cache raw with
      | _ -> incr memo
      | exception Serve.Cache.Miss -> (
          match Api.Request.of_line raw with
          | Error e -> failwith e
          | Ok r -> (
              let key = Api.Fingerprint.of_request r in
              match Serve.Cache.find cache key with
              | _ ->
                  incr fp;
                  Serve.Cache.memoize cache ~raw ~key
              | exception Serve.Cache.Miss ->
                  incr miss;
                  Serve.Cache.insert cache ~key ~line:expected.(s);
                  Serve.Cache.memoize cache ~raw ~key)))
    ids;
  (!memo, !fp, !miss, List.length ids)

(* Tracing overhead of the hot path, measured in-process: blocks of the
   hot stream through [Serve.Batch.handle_line] on two engines warmed
   alike, one with Obs off and one with Obs on, in alternating order.
   Returns the median traced block time over the median untraced one,
   minus 1, and the number of block pairs. *)
let hot_block = 512

let hot_overhead (h : Serve_bench.hot) ~expected ~budget =
  let pool = Exec.Pool.get_global ~at_least:2 () in
  let spellings = h.traffic.Traffic.spellings in
  let engine () =
    let e = Serve.Batch.create ~pool Serve.Batch.default_config in
    Array.iteri (fun q _ -> ignore (Serve.Batch.handle_line e spellings.(q * Traffic.n_spellings))) h.traffic.queries;
    e
  in
  let untraced = engine () and traced = engine () in
  let ids = Array.make hot_block 0 and got = Array.make hot_block "" in
  let run e on name =
    obs_on on;
    Spans.time name (fun () ->
        for i = 0 to hot_block - 1 do
          got.(i) <- Serve.Batch.handle_line e spellings.(ids.(i))
        done);
    obs_on false;
    Array.iteri (fun i s -> check (String.equal got.(i) expected.(s))) ids
  in
  let until = deadline budget in
  let pairs = ref 0 in
  while now_ns () < until || !pairs < 10 do
    Array.iteri (fun i _ -> ids.(i) <- Traffic.next_hot h.traffic) ids;
    if !pairs land 1 = 0 then begin
      run untraced false "serve_hot.untraced";
      run traced true "serve_hot.traced"
    end
    else begin
      run traced true "serve_hot.traced";
      run untraced false "serve_hot.untraced"
    end;
    incr pairs
  done;
  ((Spans.median_ns "serve_hot.traced" /. Spans.median_ns "serve_hot.untraced") -. 1., !pairs)

let serve_hot ~nldl ~dir ~seed ~share ~corrupt =
  let h = Serve_bench.setup_hot ~nldl ~dir:(dir ()) ~traced:true ~seed in
  let expected = Serve_bench.hot_expected ~corrupt h in
  let b = Serve_bench.run_hot h ~expected ~until_ns:(deadline (share /. 2.)) in
  let st = Daemon.stats h.daemon in
  ignore (Daemon.stop h.daemon);
  tally_block b;
  let memo, fp, miss, total = hot_replay h ~expected b in
  check
    (float_of_int (memo + fp) = num_at [ "cache_hits" ] st
    && float_of_int miss = num_at [ "cache_misses" ] st);
  let overhead, pairs = hot_overhead h ~expected ~budget:(share /. 2.) in
  let engine = num_at [ "latency_ns"; "p50" ] st in
  let rtt = Stat.median b.rtt_ns in
  recons := { workload = "serve_hot"; layers = us engine; e2e = us rtt; unit = "us"; overhead } :: !recons;
  let ratio name k = m name "ratio" (float_of_int k /. float_of_int total) ~note:(Printf.sprintf "%d of %d requests" k total) in
  [
    m "serve.engine_us" "us" (us engine)
      ~note:(Printf.sprintf "p50 of serve.latency_ns (per batch) over %.0f batches" (num_at [ "latency_ns"; "count" ] st));
    m "serve.daemon_overhead_us" "us" (us (rtt -. engine))
      ~note:(Printf.sprintf "round-trip median (%d) minus serve.engine_us" (Stat.count b.rtt_ns));
    ratio "serve.cache.memo_hit_ratio" memo;
    ratio "serve.cache.fp_hit_ratio" fp;
    m "obs.overhead_frac.serve_hot" "ratio" overhead
      ~note:(Printf.sprintf "in-process Batch.handle_line, medians of %d blocks of %d hits, Obs on over off, minus 1" pairs hot_block);
  ]

(* The cold stream replayed in-process with Obs on, one public call per
   stage of the query plane, then the same line through
   [Serve.Batch.handle_line] on two engines warmed alike, one with Obs
   on and one with it off, in alternating order: each distinct request
   misses in both.  Returns the median unattributed time, the median
   traced-over-untraced handle ratio minus 1, and the request count. *)
let api_replay ~seed ~budget =
  let pool = Exec.Pool.get_global ~at_least:2 () in
  let traced = Serve.Batch.create ~pool Serve.Batch.default_config in
  let untraced = Serve.Batch.create ~pool Serve.Batch.default_config in
  let cache = Serve.Cache.create ~capacity:Serve.Batch.default_config.cache_capacity in
  let warm = Traffic.cold ~seed ~warm:true in
  for _ = 1 to Serve_bench.cold_warm do
    let line = Traffic.line (Traffic.next_cold warm) in
    let out = Serve.Batch.handle_line traced line in
    ignore (Serve.Batch.handle_line untraced line);
    match Api.Request.of_line line with
    | Ok r -> Serve.Cache.insert cache ~key:(Api.Fingerprint.of_request r) ~line:out
    | Error e -> failwith e
  done;
  let stream = Traffic.cold ~seed ~warm:false in
  let unattributed = Stat.samples () and ratios = Stat.samples () in
  let handle e on name raw =
    obs_on on;
    let out = Spans.time name (fun () -> Serve.Batch.handle_line e raw) in
    obs_on true;
    out
  in
  let until = deadline budget in
  obs_on true;
  while now_ns () < until || stream.Traffic.issued < 100 do
    let req = stream.Traffic.issued in
    let r0 = Traffic.next_cold stream in
    let raw = Traffic.line r0 in
    let kind = Api.Request.(match r0.kind with Ratio -> "ratio" | Plan -> "plan" | Schedule -> "schedule" | Multi_load _ -> "multi_load") in
    let r = Spans.time "api.decode" (fun () -> Result.get_ok (Api.Request.of_line raw)) in
    let key = Spans.time "api.fingerprint" (fun () -> Api.Fingerprint.of_request r) in
    Spans.time "serve.cache.lookup" (fun () ->
        match Serve.Cache.find_memo cache raw with
        | _ -> failwith "serve_cold: a distinct request hit the memo"
        | exception Serve.Cache.Miss -> (
            match Serve.Cache.find cache key with
            | _ -> failwith "serve_cold: a distinct request hit the cache"
            | exception Serve.Cache.Miss -> ()));
    let resp = Spans.time ("api.eval." ^ kind) (fun () -> Api.Eval.eval r) in
    let line = Spans.time "api.encode" (fun () -> Api.Response.to_line resp) in
    Spans.time "serve.cache.insert" (fun () ->
        Serve.Cache.insert cache ~key ~line;
        Serve.Cache.memoize cache ~raw ~key);
    let stages =
      List.fold_left
        (fun acc s -> acc +. Spans.last_ns s)
        0.
        [ "api.decode"; "api.fingerprint"; "serve.cache.lookup"; "api.eval." ^ kind; "api.encode"; "serve.cache.insert" ]
    in
    let on () = check (String.equal (handle traced true "serve.batch.handle" raw) line) in
    let off () = check (String.equal (handle untraced false "serve.batch.handle.untraced" raw) line) in
    if req land 1 = 0 then (on (); off ()) else (off (); on ());
    let t_on = Spans.last_ns "serve.batch.handle" in
    Stat.add unattributed (t_on -. stages);
    Stat.add ratios (t_on /. Spans.last_ns "serve.batch.handle.untraced")
  done;
  obs_on false;
  (Stat.median unattributed, Stat.median ratios -. 1., stream.Traffic.issued)

let serve_cold ~nldl ~dir ~seed ~share ~corrupt =
  let c = Serve_bench.setup_cold ~nldl ~dir:(dir ()) ~traced:true ~seed in
  let b, log = Serve_bench.run_cold c ~until_ns:(deadline (share *. 0.4)) in
  let st = Daemon.stats c.cdaemon in
  let snapshot = Daemon.stop c.cdaemon in
  Serve_bench.check_cold ~corrupt b log;
  tally_block b;
  let unattributed, overhead, replayed = api_replay ~seed ~budget:(share *. 0.6) in
  let requests = num_at [ "requests" ] st in
  let timed = requests -. float_of_int Serve_bench.cold_warm in
  let counter name = match snapshot with Some j -> num_at [ "counters"; name ] j | None -> nan in
  let submissions = counter "pool.submissions" and sequential = counter "pool.sequential_runs" in
  let med = Spans.median_ns in
  recons :=
    { workload = "serve_cold"; layers = us (med "serve.batch.handle"); e2e = us (Stat.median b.rtt_ns); unit = "us"; overhead }
    :: !recons;
  let stage name metric unit scale =
    m metric unit (scale (med name)) ~note:(Printf.sprintf "median of %d replayed requests" (Spans.count name))
  in
  [
    m "serve.cache.evictions" "1/query"
      (num_at [ "cache_evictions" ] st /. timed)
      ~note:(Printf.sprintf "%.0f evictions over %.0f timed queries" (num_at [ "cache_evictions" ] st) timed);
    stage "api.decode" "api.decode_us" "us" us;
    stage "api.fingerprint" "api.fingerprint_us" "us" us;
    stage "api.encode" "api.encode_us" "us" us;
    stage "api.eval.ratio" "api.eval_us.ratio" "us" us;
    stage "api.eval.schedule" "api.eval_us.schedule" "us" us;
    stage "api.eval.plan" "api.eval_us.plan" "us" us;
    stage "api.eval.multi_load" "api.eval_us.multi_load" "us" us;
    stage "serve.cache.lookup" "serve.cache.lookup_ns" "ns" Fun.id;
    stage "serve.cache.insert" "serve.cache.insert_ns" "ns" Fun.id;
    stage "serve.batch.handle" "serve.batch.handle_us" "us" us;
    m "serve.unattributed_us" "us" (us unattributed)
      ~note:(Printf.sprintf "median over %d requests of handle minus its stages" replayed);
    m "exec.pool.submissions.serve_cold" "1/query" (submissions /. requests)
      ~note:(Printf.sprintf "daemon pool.submissions %.0f over %.0f queries" submissions requests);
    m "exec.pool.sequential_runs.serve_cold" "1/query" (sequential /. requests)
      ~note:(Printf.sprintf "daemon pool.sequential_runs %.0f over %.0f queries" sequential requests);
    m "obs.overhead_frac.serve_cold" "ratio" overhead
      ~note:(Printf.sprintf "in-process Batch.handle_line, median over %d requests of Obs on over off, minus 1" replayed);
  ]

(* --- the ledger -------------------------------------------------------- *)

let print_reconciliation () =
  Printf.printf "== reconciliation (traced medians)\n";
  Printf.printf "  %-16s %14s %14s %14s %10s\n" "workload" "sum of layers" "end to end" "gap" "obs ovh";
  List.iter
    (fun r ->
      Printf.printf "  %-16s %11.3f %-2s %11.3f %-2s %11.3f %-2s %9.2f%%\n" r.workload r.layers r.unit r.e2e r.unit
        (r.e2e -. r.layers) r.unit (100. *. r.overhead))
    (List.rev !recons);
  Printf.printf
    "  layers: serve_hot = daemon engine p50; serve_cold = in-process Batch.handle_line p50;\n\
    \          sort_multicore = splitters + scatter + local sort; mrsim_faults = run (heap replay + handlers)\n%!"

(* Every layer of every workload, each given a quarter of [seconds]. *)
let run ~nldl ~dir ~seed ~seconds ~corrupt =
  let share = seconds /. 4. in
  let sections =
    [
      ("serve_hot", fun () -> serve_hot ~nldl ~dir ~seed ~share ~corrupt);
      ("serve_cold", fun () -> serve_cold ~nldl ~dir ~seed ~share ~corrupt);
      ("sort_multicore", fun () -> sort_multicore ~seed ~share ~corrupt);
      ("mrsim_faults", fun () -> mrsim_faults ~seed ~share ~corrupt);
    ]
  in
  let metrics =
    List.concat_map
      (fun (w, f) ->
        Gc.full_major ();
        let ms = f () in
        Stat.print_table (w ^ " layers (traced)") ms;
        ms)
      sections
  in
  print_reconciliation ();
  (metrics, tally.attempted, tally.failed)
