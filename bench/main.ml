(* Benchmark harness.

   Two parts:
   1. Bechamel micro-benchmarks of the core kernels (one Test.make per
      kernel, grouped in a single executable).
   2. The paper-reproduction harness: prints the rows/series of every
      experiment of DESIGN.md (E1, E2, E3, Figures 4a-4c, and the
      affinity ablation).

   Usage: main.exe [--quick] [--check] [--trace [FILE]] [--metrics]
                   [--write-alloc-baseline PATH]
   (--quick cuts trial counts for CI; --check applies bench/gates.ml)

   In addition to the human-readable report, the harness writes
   BENCH_results.json (kernel name -> ns/run, pool overhead, multicore
   speedup, Fig. 4 domain-scaling) so the perf trajectory is tracked
   across PRs. *)

open Bechamel
open Toolkit

let flag_present f = Array.exists (fun a -> a = f) Sys.argv
let quick = flag_present "--quick"

let arg_value flag =
  let rec find = function
    | f :: value :: _ when f = flag -> Some value
    | _ :: rest -> find rest
    | [] -> None
  in
  find (Array.to_list Sys.argv)

(* [--write-alloc-baseline PATH]: regenerate the allocation baseline. *)
let write_alloc_path = arg_value "--write-alloc-baseline"

(* [--check]: after the run, evaluate every row of the gate table
   (bench/gates.ml) and exit 1 if any fails.  Both baselines are read
   now: the committed BENCH_results.json before the run overwrites it. *)
let check_baselines =
  if flag_present "--check" then
    let read path = In_channel.with_open_bin path In_channel.input_all in
    let committed =
      match Obs.Json.of_string (read "BENCH_results.json") with
      | Ok json -> json
      | Error e -> failwith ("--check BENCH_results.json: " ^ e)
    in
    Some (committed, Gates.alloc_baseline_of_string (read "bench/alloc_baseline.txt"))
  else None

(* [--trace [FILE]]: record Obs spans for the whole run and write a
   Chrome trace-event JSON.  [--metrics]: enable the metrics registry
   and histograms, and embed the merged snapshot in BENCH_results.json. *)
let trace_path =
  if flag_present "--trace" then
    match arg_value "--trace" with
    | Some v when String.length v > 0 && v.[0] <> '-' -> Some v
    | _ -> Some "bench_trace.json"
  else None

let metrics_on = flag_present "--metrics"

let elapsed_s = Obs.Clock.elapsed_s

(* Spawn the shared pool's workers before a timed section, so it does
   not pay the one-off spawn cost. *)
let warm_up domains = Numerics.Parallel.warm_up ~domains ()

(* --- Part 1: Bechamel micro-benchmarks --------------------------------- *)

let bench_platform p =
  let rng = Numerics.Rng.create ~seed:99 () in
  Platform.Profiles.generate rng ~p Platform.Profiles.paper_lognormal

let test_peri_sum =
  let star = bench_platform 100 in
  let areas = Platform.Star.relative_speeds star in
  Test.make ~name:"peri-sum DP (p=100)"
    (Staged.stage (fun () -> ignore (Partition.Column_partition.peri_sum ~areas)))

let test_peri_max =
  let star = bench_platform 100 in
  let areas = Platform.Star.relative_speeds star in
  Test.make ~name:"peri-max DP (p=100)"
    (Staged.stage (fun () -> ignore (Partition.Column_partition.peri_max ~areas)))

let test_demand_driven =
  let star = bench_platform 100 in
  Test.make ~name:"demand-driven blocks (p=100, k=2)"
    (Staged.stage (fun () -> ignore (Partition.Block_hom.demand_driven star ~n:1e6 ~k:2)))

let test_nonlinear_solver =
  let star = bench_platform 64 in
  Test.make ~name:"nonlinear DLT solve (p=64, alpha=2)"
    (Staged.stage (fun () ->
         ignore
           (Dlt.Nonlinear.equal_finish_allocation Dlt.Schedule.Parallel star
              (Dlt.Cost_model.Power 2.) ~total:1e4)))

let test_sample_sort =
  let rng = Numerics.Rng.create ~seed:4 () in
  let keys = Array.init 100_000 (fun _ -> Numerics.Rng.float rng) in
  Test.make ~name:"sample sort (N=1e5, p=16)"
    (Staged.stage (fun () ->
         let rng = Numerics.Rng.create ~seed:5 () in
         ignore (Sortlib.Multicore.sort ~domains:1 rng keys ~p:16)))

let test_distributed_matmul =
  let rng = Numerics.Rng.create ~seed:6 () in
  let n = 96 in
  let a = Linalg.Matrix.random rng ~rows:n ~cols:n in
  let b = Linalg.Matrix.random rng ~rows:n ~cols:n in
  let star = bench_platform 8 in
  let zones = Linalg.Zone.for_platform star ~n in
  Test.make ~name:"distributed matmul (n=96, p=8)"
    (Staged.stage (fun () -> ignore (Linalg.Matmul.distributed ~zones a b)))

let test_event_heap =
  (* [exercise] drives push+pop from inside the module, so the number
     does not depend on cross-module inlining (dev profiles pass
     [-opaque], which would box one float per out-of-module push). *)
  Test.make ~name:"event heap push+pop (10k)"
    (Staged.stage (fun () ->
         let h = Des.Event_heap.create ~initial_capacity:10_000 () in
         Des.Event_heap.exercise h ~rounds:1 ~batch:10_000))

let test_strassen =
  let rng = Numerics.Rng.create ~seed:7 () in
  let n = 128 in
  let a = Linalg.Matrix.random rng ~rows:n ~cols:n in
  let b = Linalg.Matrix.random rng ~rows:n ~cols:n in
  Test.make ~name:"strassen (n=128, cutoff=32)"
    (Staged.stage (fun () -> ignore (Linalg.Strassen.multiply ~cutoff:32 a b)))

let test_cannon =
  let rng = Numerics.Rng.create ~seed:9 () in
  let n = 96 in
  let a = Linalg.Matrix.random rng ~rows:n ~cols:n in
  let b = Linalg.Matrix.random rng ~rows:n ~cols:n in
  Test.make ~name:"cannon (n=96, 4x4 grid)"
    (Staged.stage (fun () -> ignore (Linalg.Cannon.distributed ~grid:4 a b)))

let test_histogram_sort =
  let rng = Numerics.Rng.create ~seed:10 () in
  let keys = Array.init 100_000 (fun _ -> Numerics.Rng.float rng) in
  Test.make ~name:"histogram splitters (N=1e5, p=16)"
    (Staged.stage (fun () ->
         ignore (Sortlib.Histogram_sort.splitters ~tolerance:0.01 keys ~p:16)))

let test_lu =
  let rng = Numerics.Rng.create ~seed:11 () in
  let n = 96 in
  let base = Linalg.Matrix.random rng ~rows:n ~cols:n in
  let a =
    Linalg.Matrix.add base (Linalg.Matrix.scale (float_of_int n) (Linalg.Matrix.identity n))
  in
  Test.make ~name:"LU factorize (n=96, block=32)"
    (Staged.stage (fun () -> ignore (Linalg.Lu.factorize ~block:32 a)))

let test_cholesky =
  let rng = Numerics.Rng.create ~seed:12 () in
  let n = 96 in
  let m = Linalg.Matrix.random rng ~rows:n ~cols:n in
  let a =
    Linalg.Matrix.add
      (Linalg.Matrix.mul m (Linalg.Matrix.transpose m))
      (Linalg.Matrix.scale (float_of_int n) (Linalg.Matrix.identity n))
  in
  Test.make ~name:"Cholesky factorize (n=96, block=32)"
    (Staged.stage (fun () -> ignore (Linalg.Cholesky.factorize ~block:32 a)))

let test_karatsuba =
  let rng = Numerics.Rng.create ~seed:13 () in
  let a = Array.init 1024 (fun _ -> Numerics.Rng.uniform rng (-1.) 1.) in
  let b = Array.init 1024 (fun _ -> Numerics.Rng.uniform rng (-1.) 1.) in
  Test.make ~name:"karatsuba (n=1024)"
    (Staged.stage (fun () -> ignore (Linalg.Poly.karatsuba ~cutoff:32 a b)))

let test_psrs =
  let rng = Numerics.Rng.create ~seed:14 () in
  let keys = Array.init 100_000 (fun _ -> Numerics.Rng.float rng) in
  Test.make ~name:"PSRS sort (N=1e5, p=16)"
    (Staged.stage (fun () -> ignore (Sortlib.Psrs.sort keys ~p:16)))

let test_mapreduce =
  let rng = Numerics.Rng.create ~seed:8 () in
  let a = Array.init 256 (fun _ -> Numerics.Rng.float rng) in
  let b = Array.init 256 (fun _ -> Numerics.Rng.float rng) in
  let star = bench_platform 8 in
  Test.make ~name:"MapReduce outer-product map phase (n=256, p=8)"
    (Staged.stage (fun () ->
         let job = Mapreduce.Jobs.outer_product ~a ~b ~chunk:32 in
         ignore
           (Mapreduce.Scheduler.run star ~tasks:job.Mapreduce.Engine.tasks
              ~block_size:job.Mapreduce.Engine.block_size)))

let report_multicore () =
  (* Real-parallelism check of phase 3 (§3): host-dependent, so
     reported rather than benchmarked. *)
  let domains = Exec.Pool.default_domains () in
  let seq, par, speedup =
    Sortlib.Multicore.speedup (Numerics.Rng.create ~seed:77 ()) ~n:500_000 ~p:16
  in
  Printf.printf
    "\nMulticore sample sort (N=5e5, p=16, %d domains): %.3fs sequential, %.3fs parallel \
     (speedup %.2fx)\n%!"
    domains seq par speedup;
  Obs.Json.Obj
    [
      ("domains", Obs.Json.Int domains);
      ("sequential_s", Obs.Json.Float seq);
      ("parallel_s", Obs.Json.Float par);
      ("speedup", Obs.Json.Float speedup);
    ]

let report_sort_throughput () =
  (* Headline keys/sec of the flat-buffer sort pipelines, median of >= 3
     interleaved trials so drift hits every variant equally. *)
  let n = if quick then 200_000 else 1_000_000 in
  let p = 16 in
  let trials = if quick then 3 else 5 in
  let rng = Numerics.Rng.create ~seed:31 () in
  let keys = Array.init n (fun _ -> Numerics.Rng.float rng) in
  let domains = Exec.Pool.default_domains () in
  warm_up domains;
  let median samples =
    let sorted = Array.copy samples in
    Array.sort Float.compare sorted;
    sorted.(Array.length sorted / 2)
  in
  let pipelines =
    [
      ( "multicore",
        fun () ->
          ignore (Sortlib.Multicore.sort ~domains (Numerics.Rng.create ~seed:32 ()) keys ~p) );
      ("psrs", fun () -> ignore (Sortlib.Psrs.sort keys ~p));
      ("histogram", fun () -> ignore (Sortlib.Histogram_sort.sort keys ~p));
    ]
  in
  (* Untimed warm-up of each pipeline, then interleaved trials. *)
  List.iter (fun (_, f) -> f ()) pipelines;
  let times = List.map (fun (name, _) -> (name, Array.make trials 0.)) pipelines in
  for t = 0 to trials - 1 do
    List.iter
      (fun (name, f) ->
        let (), s = elapsed_s f in
        (List.assoc name times).(t) <- s)
      pipelines
  done;
  Experiments.Report.section
    (Printf.sprintf "Sort throughput (N=%d, p=%d, median of %d trials)" n p trials);
  let table = Numerics.Ascii_table.create ~headers:[ "pipeline"; "keys/sec"; "seconds" ] in
  Numerics.Ascii_table.set_align table [ Numerics.Ascii_table.Left; Right; Right ];
  let rows =
    List.map
      (fun (name, samples) ->
        let seconds = median samples in
        let throughput = float_of_int n /. seconds in
        Numerics.Ascii_table.add_row table
          [ name; Printf.sprintf "%.3e" throughput; Printf.sprintf "%.3f" seconds ];
        ( name,
          Obs.Json.Obj
            [
              ("keys_per_sec", Obs.Json.Float throughput);
              ("median_seconds", Obs.Json.Float seconds);
            ] ))
      times
  in
  Numerics.Ascii_table.print table;
  Obs.Json.Obj
    ([ ("n_keys", Obs.Json.Int n); ("p", Obs.Json.Int p); ("trials", Obs.Json.Int trials) ] @ rows)

let report_pool_overhead () =
  (* Tentpole check: submitting to the persistent pool must beat paying
     a Domain.spawn/join round-trip per call. *)
  let d = max 2 (min 8 (Exec.Pool.default_domains ())) in
  let iters = if quick then 200 else 1000 in
  let pool = Exec.Pool.create ~domains:d () in
  (* Untimed: the pool spawns its workers on this first submission. *)
  Exec.Pool.parallel_for pool d (fun _ -> ());
  let (), pool_s =
    elapsed_s (fun () ->
        for _ = 1 to iters do
          Exec.Pool.parallel_for pool d (fun _ -> ())
        done)
  in
  let (), spawn_s =
    elapsed_s (fun () ->
        for _ = 1 to iters do
          let spawned = List.init (d - 1) (fun _ -> Domain.spawn (fun () -> ())) in
          List.iter Domain.join spawned
        done)
  in
  Exec.Pool.teardown pool;
  let pool_ns = pool_s *. 1e9 /. float_of_int iters in
  let spawn_ns = spawn_s *. 1e9 /. float_of_int iters in
  Printf.printf
    "\nPool dispatch overhead (%d domains, %d calls): %.1f us/call pooled vs %.1f us/call \
     spawn-per-call (%.1fx less)\n%!"
    d iters (pool_ns /. 1e3) (spawn_ns /. 1e3)
    (spawn_ns /. pool_ns);
  Obs.Json.Obj
    [
      ("domains", Obs.Json.Int d);
      ("iterations", Obs.Json.Int iters);
      ("pool_ns_per_call", Obs.Json.Float pool_ns);
      ("spawn_ns_per_call", Obs.Json.Float spawn_ns);
      ("overhead_ratio", Obs.Json.Float (spawn_ns /. pool_ns));
    ]

let report_fig4_scaling () =
  (* Domain-count scaling of the Fig. 4 Monte-Carlo sweep, with an
     output-identity check: the pre-split per-trial RNGs make the rows
     byte-identical at any domain count.

     Each domain count is timed as the median of three sweeps after an
     untimed warm-up: a single-shot timing once recorded a phantom
     0.786x "regression" at 2 domains that median sampling does not
     reproduce (see EXPERIMENTS.md).  Domain counts above the
     hardware's recommended count are still measured (the series keeps
     its shape across hosts) but flagged [oversubscribed]: on such
     hosts the extra domain can only time-slice, so speedup ~1.0 is
     the expected reading, not a regression. *)
  let trials = if quick then 10 else 100 in
  let processor_counts = if quick then [ 10; 20; 40 ] else Experiments.Fig4.default_processor_counts in
  let profile = Platform.Profiles.paper_lognormal in
  let max_d = Exec.Pool.default_domains () in
  let domain_counts =
    List.sort_uniq compare (List.filter (fun d -> d <= max 2 max_d) [ 1; 2; 4; max_d ])
  in
  warm_up (List.fold_left max 1 domain_counts);
  let runs =
    List.map
      (fun d ->
        let points =
          Experiments.Fig4.sweep ~processor_counts ~trials ~domains:d profile
        in
        let times =
          Array.init 3 (fun _ ->
              let _, s =
                elapsed_s (fun () ->
                    Experiments.Fig4.sweep ~processor_counts ~trials ~domains:d profile)
              in
              s)
        in
        Array.sort Float.compare times;
        (d, times.(1), Experiments.Fig4.csv points))
      domain_counts
  in
  let _, base_seconds, base_csv = List.hd runs in
  let identical =
    List.for_all (fun (_, _, csv) -> csv = base_csv) runs
  in
  Experiments.Report.section
    (Printf.sprintf "Fig. 4 sweep domain scaling (lognormal, %d trials/point, %d hardware domains)"
       trials max_d);
  let table =
    Numerics.Ascii_table.create ~headers:[ "domains"; "seconds"; "speedup"; "output" ]
  in
  List.iter
    (fun (d, seconds, csv) ->
      Numerics.Ascii_table.add_row table
        [
          (if d > max_d then Printf.sprintf "%d (oversubscribed)" d else string_of_int d);
          Printf.sprintf "%.3f" seconds;
          Printf.sprintf "%.2fx" (base_seconds /. seconds);
          (if csv = base_csv then "identical" else "DIFFERS");
        ])
    runs;
  Numerics.Ascii_table.print table;
  if not identical then
    Printf.printf "WARNING: Fig. 4 output changed with the domain count!\n%!";
  Obs.Json.Obj
    [
      ("trials", Obs.Json.Int trials);
      ("hardware_domains", Obs.Json.Int max_d);
      ("outputs_identical", Obs.Json.Bool identical);
      ( "runs",
        Obs.Json.List
          (List.map
             (fun (d, seconds, _) ->
               Obs.Json.Obj
                 [
                   ("domains", Obs.Json.Int d);
                   ("seconds", Obs.Json.Float seconds);
                   ("speedup", Obs.Json.Float (base_seconds /. seconds));
                   ("oversubscribed", Obs.Json.Bool (d > max_d));
                 ])
             runs) );
    ]

(* --- Discrete-event core throughput ------------------------------------ *)

(* Sustained seconds per [n]-push-[n]-pop cycle of a pre-sized heap:
   median of timed blocks, GC work left inside the timed region.
   Bechamel-style stabilized sampling would let collections fall
   outside the timing, a mean would let one descheduling hiccup sink
   the gated rate; the median of sustained blocks avoids both.  One
   untimed warm-up cycle comes first. *)
let time_heap_push_pop n =
  let h = Des.Event_heap.create ~initial_capacity:n () in
  let cycle () = Des.Event_heap.exercise h ~rounds:1 ~batch:n in
  let samples = if n >= 1_000_000 then 3 else 5 and rounds = max 1 (400_000 / n) in
  cycle ();
  let times =
    Array.init samples (fun _ ->
        let (), s =
          elapsed_s (fun () ->
              for _ = 1 to rounds do
                cycle ()
              done)
        in
        s /. float_of_int rounds)
  in
  Array.sort Float.compare times;
  times.(samples / 2)

(* The fault-injected big-MapReduce workload shared by the
   [des_throughput] and [obs_overhead] sections: 10^5 uniform workers,
   10^6 unit tasks, the ISSUE 7 headline scale.  Rebuilding the inputs
   per section keeps each section self-contained; the returned thunk
   runs one deterministic simulation. *)
let big_mr_workers = 100_000
let big_mr_tasks = 1_000_000

let big_mr_run () =
  let star = Platform.Star.of_speeds (List.init big_mr_workers (fun _ -> 1.)) in
  let tasks =
    Array.init big_mr_tasks (fun i -> Mapreduce.Task.make ~id:i ~data_ids:[| i |] ~cost:1.)
  in
  let faults =
    Fault.Plan.generate
      ~rng:(Numerics.Rng.create ~seed:42 ())
      ~p:big_mr_workers ~horizon:20. ~crash_rate:0.001 ~slowdown_rate:0.01
      ~fetch_failure:0.01 ()
  in
  fun () -> Mapreduce.Scheduler.run ~faults star ~tasks ~block_size:(fun _ -> 1.)

let report_des_throughput ~best_mr_seconds () =
  Experiments.Report.section "Discrete-event core throughput (events/sec)";
  (* Raw heap push+pop rate at the historical 10k micro-benchmark size
     and at 1M, where a multi-megabyte live set has to stay out of the
     minor GC's way. *)
  let rate_of n s = float_of_int (2 * n) /. s in
  let heap_s_10k = time_heap_push_pop 10_000 in
  let heap_s_1m = time_heap_push_pop 1_000_000 in
  let heap_rate_10k = rate_of 10_000 heap_s_10k in
  let heap_rate_1m = rate_of 1_000_000 heap_s_1m in
  let table =
    Numerics.Ascii_table.create ~headers:[ "workload"; "events/sec"; "seconds" ]
  in
  Numerics.Ascii_table.set_align table [ Numerics.Ascii_table.Left; Right; Right ];
  List.iter
    (fun (name, r, s) ->
      Numerics.Ascii_table.add_row table
        [ name; Printf.sprintf "%.3e" r; Printf.sprintf "%.4f" s ])
    [
      ("heap push+pop (10000)", heap_rate_10k, heap_s_10k);
      ("heap push+pop (1000000)", heap_rate_1m, heap_s_1m);
    ];
  (* Fault-injected MapReduce at paper-sweep scale: the end-to-end
     events/sec of the rewritten scheduler, [events_processed] over wall
     time.  This one does NOT shrink in --quick — 10^5 workers x 10^6
     tasks is the ISSUE 7 headline and the whole run is ~3s, so CI and
     the committed artifact always gate like-for-like at full scale
     (the rate is scale-dependent: the 10x smaller run clocks ~3x
     higher events/sec on a smaller working set).  Low fault rates keep
     the workload dominated by regular dispatch: ~0.1% of workers crash
     (with recovery), 1% are slowed, and every link drops 1% of
     fetches. *)
  let workers = big_mr_workers in
  let n_tasks = big_mr_tasks in
  let run_mr = big_mr_run () in
  (* The run is deterministic, so timing the same simulation twice and
     keeping the faster pass is pure noise control; the [full_major]
     keeps garbage from the heap timings above (and from the first pass)
     out of the timed region.  [best_mr_seconds] folds in the best of
     the obs_overhead section's passes over the identical workload, so
     the gated headline is a min over ~8 timings spread across the
     process instead of 2 adjacent ones — a transient slow window on a
     shared runner can no longer sink the committed-baseline gate. *)
  Gc.full_major ();
  let outcome, s1 = elapsed_s run_mr in
  Gc.full_major ();
  let _, s2 = elapsed_s run_mr in
  let seconds = Float.min (Float.min s1 s2) best_mr_seconds in
  let events = outcome.Mapreduce.Scheduler.events_processed in
  let mr_rate = float_of_int events /. seconds in
  Numerics.Ascii_table.add_row table
    [
      Printf.sprintf "mapreduce %dx%d (faults on)" workers n_tasks;
      Printf.sprintf "%.3e" mr_rate;
      Printf.sprintf "%.4f" seconds;
    ];
  Numerics.Ascii_table.print table;
  Printf.printf
    "Large MapReduce: %d events, makespan %.2f, %d retries, %d crashes, %d unfinished\n%!"
    events outcome.Mapreduce.Scheduler.makespan
    outcome.Mapreduce.Scheduler.retries outcome.Mapreduce.Scheduler.crashes_survived
    (List.length outcome.Mapreduce.Scheduler.unfinished);
  Obs.Json.Obj
    [
      ("heap_ops_per_sec_10k", Obs.Json.Float heap_rate_10k);
      ("heap_ops_per_sec_1m", Obs.Json.Float heap_rate_1m);
      ( "mapreduce",
        Obs.Json.Obj
          [
            ("workers", Obs.Json.Int workers);
            ("tasks", Obs.Json.Int n_tasks);
            ("events_processed", Obs.Json.Int events);
            ("seconds", Obs.Json.Float seconds);
            ("events_per_sec", Obs.Json.Float mr_rate);
            ("makespan", Obs.Json.Float outcome.Mapreduce.Scheduler.makespan);
            ("retries", Obs.Json.Int outcome.Mapreduce.Scheduler.retries);
            ( "crashes_survived",
              Obs.Json.Int outcome.Mapreduce.Scheduler.crashes_survived );
            ( "unfinished",
              Obs.Json.Int (List.length outcome.Mapreduce.Scheduler.unfinished) );
          ] );
    ]

(* --- Observability overhead -------------------------------------------- *)

(* Run the big MapReduce with the full observability stack forced off,
   then forced on (metrics + histograms + tracing), interleaved
   min-of-2 on each side — same process, same deterministic workload,
   back to back, so the ratio is the instrumentation tax and nothing
   else.  The section sets the flags itself on both sides: it must not
   inherit --metrics, or the "disabled" baseline would be instrumented
   too and the ratio would gate nothing.

   The disabled path is too cheap to resolve that way (the gate is 1%
   of ~600ns/event), so it gets a microbenchmark instead: the
   instrumented hot loops hoist one [obs_on] bool per run and guard
   each record site with a plain conditional on it, so the disabled
   per-event cost is a handful of load+branch tests.  We time a tight
   loop with and without that exact shape and charge three such tests
   per event (an upper bound: the scheduler executes at most ~3 gated
   sites per event). *)
let report_obs_overhead () =
  Experiments.Report.section "Observability overhead (big MapReduce, full stack on)";
  let run_mr = big_mr_run () in
  let prev_m = Obs.Metrics.enabled () in
  let prev_h = Obs.Hist.enabled () in
  let prev_t = Obs.Trace.enabled () in
  let set_all on =
    Obs.Metrics.set_enabled on;
    Obs.Hist.set_enabled on;
    Obs.Trace.set_enabled on
  in
  let timed_pass on =
    set_all on;
    Gc.full_major ();
    let outcome, s = elapsed_s run_mr in
    (outcome.Mapreduce.Scheduler.events_processed, s)
  in
  (* Three interleaved disabled/enabled pairs, min per side: the min is
     the noise-robust estimator for a ratio gate, and interleaving keeps
     slow drift (thermal, page cache) from biasing one side. *)
  let pairs = 3 in
  let events = ref 0 in
  let disabled_seconds = ref infinity in
  let enabled_seconds = ref infinity in
  for _ = 1 to pairs do
    let ev, d = timed_pass false in
    events := ev;
    if d < !disabled_seconds then disabled_seconds := d;
    let _, e = timed_pass true in
    if e < !enabled_seconds then enabled_seconds := e
  done;
  Obs.Metrics.set_enabled prev_m;
  Obs.Hist.set_enabled prev_h;
  Obs.Trace.set_enabled prev_t;
  let events = !events in
  let disabled_seconds = !disabled_seconds in
  let enabled_seconds = !enabled_seconds in
  let overhead_ratio = enabled_seconds /. disabled_seconds in
  (* Disabled-path microbenchmark.  [gate] is a ref so the load cannot
     be hoisted out of the loop, and it is plain [false] — exactly the
     hoisted [obs_on] the instrumented loops test — so the guarded
     record never fires, just like a disabled run. *)
  let h_probe = Obs.Hist.create "bench.obs_probe" in
  let sh_probe = Obs.Hist.shard h_probe in
  let gate = ref false in
  let iters = 20_000_000 in
  let time_loop body =
    let best = ref infinity in
    for _ = 1 to 3 do
      let _, s = elapsed_s body in
      if s < !best then best := s
    done;
    !best
  in
  let base_s =
    time_loop (fun () ->
        let acc = ref 0 in
        for i = 0 to iters - 1 do
          acc := !acc + (i land 1023)
        done;
        ignore (Sys.opaque_identity !acc))
  in
  let gated_s =
    time_loop (fun () ->
        let acc = ref 0 in
        for i = 0 to iters - 1 do
          if !gate then Obs.Hist.record_into sh_probe i;
          acc := !acc + (i land 1023)
        done;
        ignore (Sys.opaque_identity !acc))
  in
  let gated_ns = Float.max 0. ((gated_s -. base_s) /. float_of_int iters *. 1e9) in
  let ns_per_event = disabled_seconds /. float_of_int events *. 1e9 in
  let disabled_fraction = gated_ns *. 3. /. ns_per_event in
  Printf.printf
    "enabled %.4fs vs disabled %.4fs: %.2f%% overhead (full stack)\n\
     disabled path: %.3f ns/gated check, %.1f ns/event -> %.3f%% charged at 3 \
     checks/event\n\
     %!"
    enabled_seconds disabled_seconds
    ((overhead_ratio -. 1.) *. 100.)
    gated_ns ns_per_event (disabled_fraction *. 100.);
  ( Obs.Json.Obj
      [
        ("disabled_seconds", Obs.Json.Float disabled_seconds);
        ("enabled_seconds", Obs.Json.Float enabled_seconds);
        ("overhead_ratio", Obs.Json.Float overhead_ratio);
        ("gated_check_ns", Obs.Json.Float gated_ns);
        ("ns_per_event", Obs.Json.Float ns_per_event);
        ("disabled_path_fraction", Obs.Json.Float disabled_fraction);
      ],
    Float.min disabled_seconds enabled_seconds )

(* --- serve throughput: the query-plane daemon's engine, in-process ---- *)

(* Distinct nonlinear Ratio queries exercise the cold path (parse ->
   fingerprint -> bisection solve -> insert); replaying the same lines
   exercises the warm memo-hit path the daemon answers repeats from.
   Driving Serve.Batch directly keeps socket I/O out of the measurement
   — this is the cache's speedup, which is what the 10x gate pins. *)
let report_serve_throughput () =
  Printf.printf "\n-- serve throughput (cold solve vs warm cache hit) --\n%!";
  let n = if quick then 64 else 256 in
  let lines =
    Array.init n (fun i ->
        match
          Api.Request.make
            ~workload:(Dlt.Cost_model.Power 2.)
            ~total:(100. +. float_of_int i)
            ~platform:(Api.Request.Speeds [| 1.; 2.; 3.; 5.; 8.; 13.; 21.; 34. |])
            ~kind:Api.Request.Ratio ()
        with
        | Ok r -> Obs.Json.to_compact (Api.Request.to_json r)
        | Error e -> failwith ("serve bench request: " ^ e))
  in
  let batch =
    Serve.Batch.create
      { Serve.Batch.default_config with Serve.Batch.cache_capacity = 2 * n }
  in
  let t0 = Obs.Clock.now_ns () in
  Array.iter (fun l -> ignore (Serve.Batch.handle_line batch l)) lines;
  let cold_s = Obs.Clock.ns_to_s (Obs.Clock.now_ns () - t0) in
  let reps = if quick then 50 else 200 in
  let t1 = Obs.Clock.now_ns () in
  for _ = 1 to reps do
    Array.iter (fun l -> ignore (Serve.Batch.handle_line batch l)) lines
  done;
  let warm_s = Obs.Clock.ns_to_s (Obs.Clock.now_ns () - t1) in
  let cold_qps = float_of_int n /. cold_s in
  let warm_qps = float_of_int (n * reps) /. warm_s in
  let ratio = warm_qps /. cold_qps in
  Printf.printf
    "cold %.0f queries/s (%d distinct), warm %.0f queries/s (%d hits): %.1fx\n%!"
    cold_qps n warm_qps (n * reps) ratio;
  assert (Serve.Batch.hits batch = n * reps);
  Obs.Json.Obj
    [
      ("queries", Obs.Json.Int n);
      ("cold_queries_per_sec", Obs.Json.Float cold_qps);
      ("warm_queries_per_sec", Obs.Json.Float warm_qps);
      ("warm_over_cold", Obs.Json.Float ratio);
      ("cache_hits", Obs.Json.Int (Serve.Batch.hits batch));
      ("cache_misses", Obs.Json.Int (Serve.Batch.misses batch));
    ]

(* --- json codec: the wire float printer against one libc call ----------- *)

(* Obs.Json.float_compact renders every wire and fingerprint float.  It
   is timed against a single [sprintf "%.17g"] on the same seeded
   uniform doubles in this process, so machine speed cancels out.  The
   three-libc-call body it replaced reads 1.8-2.4 on a 2-vCPU x86 host,
   the digit generator about 0.35.  Each side keeps its best of three
   alternating passes. *)
let report_json_codec () =
  Printf.printf "\n-- json codec (float_compact vs sprintf %%.17g) --\n%!";
  let rng = Numerics.Rng.create ~seed:31 () in
  let values = Array.init 100_000 (fun _ -> Numerics.Rng.float rng) in
  let pass render =
    let t0 = Obs.Clock.now_ns () in
    Array.iter (fun f -> ignore (Sys.opaque_identity (render f))) values;
    Obs.Clock.ns_to_s (Obs.Clock.now_ns () - t0)
  in
  let best_compact = ref Float.infinity and best_sprintf = ref Float.infinity in
  for _ = 1 to 3 do
    best_compact := Float.min !best_compact (pass Obs.Json.float_compact);
    best_sprintf := Float.min !best_sprintf (pass (Printf.sprintf "%.17g"))
  done;
  let per_call s = s /. float_of_int (Array.length values) *. 1e9 in
  let ratio = !best_compact /. !best_sprintf in
  Printf.printf "float_compact %.0f ns/value, sprintf %%.17g %.0f ns/value: %.2fx\n%!"
    (per_call !best_compact) (per_call !best_sprintf) ratio;
  Obs.Json.Obj
    [
      ("values", Obs.Json.Int (Array.length values));
      ("compact_ns", Obs.Json.Float (per_call !best_compact));
      ("sprintf17_ns", Obs.Json.Float (per_call !best_sprintf));
      ("compact_over_sprintf17", Obs.Json.Float ratio);
    ]

(* --- lint time: two-phase pipeline vs per-file baseline --------------- *)

(* Three driver runs over the committed tree: the PR-5 per-file
   behaviour (no callgraph, no cache), the full two-phase pipeline on a
   cold cache, and a rerun against the warm cache.  The interprocedural
   layer's whole cost budget is "parse dominates": linking fragments and
   walking the escape set must stay within one extra parse pass, and the
   cache must make reruns cheap enough for a pre-commit hook. *)
let report_lint_time () =
  Printf.printf
    "\n-- lint time (per-file baseline vs two-phase, cold vs warm cache) --\n%!";
  let rec find_root dir =
    if
      Sys.file_exists (Filename.concat dir "dune-project")
      && Sys.file_exists (Filename.concat dir "lib")
    then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else find_root parent
  in
  match find_root (Sys.getcwd ()) with
  | None ->
      Printf.printf "repo root not found; section skipped\n%!";
      Obs.Json.Null
  | Some root ->
      (* A fresh directory per run keeps the cold measurement honest
         even when a developer cache exists; Cache creates it on first
         store. *)
      let cache_dir = Filename.temp_file "nldl-lint-bench" "" in
      Sys.remove cache_dir;
      let time f =
        let t0 = Obs.Clock.now_ns () in
        let r = f () in
        (r, Obs.Clock.ns_to_s (Obs.Clock.now_ns () - t0))
      in
      let run ~use_cache ~interproc () =
        Lint.Driver.run ~root ~roots:[ "lib"; "bin" ] ~cache_dir ~use_cache
          ~interproc ()
      in
      let baseline, per_file_s = time (run ~use_cache:false ~interproc:false) in
      let cold, cold_s = time (run ~use_cache:true ~interproc:true) in
      let warm, warm_s = time (run ~use_cache:true ~interproc:true) in
      (let rec rm p =
         if Sys.is_directory p then begin
           Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
           Unix.rmdir p
         end
         else Sys.remove p
       in
       if Sys.file_exists cache_dir then rm cache_dir);
      let full_over_per_file = cold_s /. per_file_s in
      let cold_over_warm = cold_s /. warm_s in
      Printf.printf
        "per-file %.0f ms, two-phase cold %.0f ms (%.2fx), warm %.0f ms \
         (%.1fx faster; %d hit, %d miss) over %d files\n%!"
        (per_file_s *. 1e3) (cold_s *. 1e3) full_over_per_file (warm_s *. 1e3)
        cold_over_warm warm.Lint.Driver.cache_hits warm.Lint.Driver.cache_misses
        cold.Lint.Driver.files;
      assert (warm.Lint.Driver.cache_misses = 0);
      assert (Lint.Callgraph.node_count cold.Lint.Driver.graph > 0);
      ignore baseline;
      Obs.Json.Obj
        [
          ("files", Obs.Json.Int cold.Lint.Driver.files);
          ("graph_nodes", Obs.Json.Int (Lint.Callgraph.node_count cold.Lint.Driver.graph));
          ("per_file_seconds", Obs.Json.Float per_file_s);
          ("cold_seconds", Obs.Json.Float cold_s);
          ("warm_seconds", Obs.Json.Float warm_s);
          ("full_over_per_file", Obs.Json.Float full_over_per_file);
          ("cold_over_warm", Obs.Json.Float cold_over_warm);
        ]

(* --- Allocation accounting --------------------------------------------- *)

(* One closure per tracked kernel.  Domain counts are pinned (never
   host-derived) and input sizes fixed, so the counters are comparable
   across machines — which is what lets CI hard-fail on regressions
   against the committed baseline.  [Gc.minor_words]/[major_words] count
   the submitting domain, so pool-worker noise is excluded. *)
let alloc_kernels () =
  let n_keys = 200_000 and p = 16 in
  let rng = Numerics.Rng.create ~seed:21 () in
  let keys = Array.init n_keys (fun _ -> Numerics.Rng.float rng) in
  let splitters =
    Sortlib.Sample_sort.choose_splitters_floats
      (Numerics.Rng.create ~seed:22 ())
      keys ~p
      ~s:(Sortlib.Sample_sort.default_oversampling ~n:n_keys)
  in
  let mat_rng = Numerics.Rng.create ~seed:23 () in
  let n_mat = 96 in
  let a = Linalg.Matrix.random mat_rng ~rows:n_mat ~cols:n_mat in
  let b = Linalg.Matrix.random mat_rng ~rows:n_mat ~cols:n_mat in
  let star = bench_platform 8 in
  let zones = Linalg.Zone.for_platform star ~n:n_mat in
  let n_vec = 256 in
  let va = Array.init n_vec (fun _ -> Numerics.Rng.float mat_rng) in
  let vb = Array.init n_vec (fun _ -> Numerics.Rng.float mat_rng) in
  let vzones = Linalg.Zone.for_platform star ~n:n_vec in
  let heap = Des.Event_heap.create ~initial_capacity:10_000 () in
  (* The encode-bound serve answers: a p=32 schedule (one row per
     worker) and a p=64 plan, solved once outside the kernel. *)
  let request p kind =
    let grid = Numerics.Rng.create ~seed:(25 + p) () in
    let speeds =
      Array.init p (fun _ -> Float.round (Numerics.Rng.uniform grid 0.5 8. *. 1000.) /. 1000.)
    in
    match Api.Request.make ~total:4321.5 ~platform:(Api.Request.Speeds speeds) ~kind () with
    | Ok r -> r
    | Error e -> failwith ("response_to_line request: " ^ e)
  in
  let schedule_req = request 32 Api.Request.Schedule and plan_req = request 64 Api.Request.Plan in
  let schedule = Api.Eval.eval schedule_req and plan = Api.Eval.eval plan_req in
  assert (not (Api.Response.is_error schedule || Api.Response.is_error plan));
  let line r = Obs.Json.to_compact (Api.Request.to_json r) in
  let schedule_line = line schedule_req and plan_line = line plan_req in
  let nonlinear_star = bench_platform 64 in
  let seg_buf = Array.make n_keys 0. in
  [
    ( "scatter_partition_floats",
      fun () -> ignore (Kernels.Scatter.partition_floats keys ~splitters) );
    ( "scatter_partition_pool",
      fun () ->
        ignore
          (Kernels.Scatter.partition_floats_pool ~workers:2
             (Exec.Pool.get_global ~at_least:2 ())
             keys ~splitters) );
    ( "multicore_sort",
      fun () ->
        ignore (Sortlib.Multicore.sort ~domains:2 (Numerics.Rng.create ~seed:24 ()) keys ~p) );
    ("psrs_sort", fun () -> ignore (Sortlib.Psrs.sort keys ~p));
    ("histogram_splitters", fun () -> ignore (Sortlib.Histogram_sort.splitters keys ~p));
    (* One local sort: every caller's bucket phase runs this kernel. *)
    ( "seg_sort_floats",
      fun () ->
        Array.blit keys 0 seg_buf 0 n_keys;
        Kernels.Seg_sort.sort_floats seg_buf ~lo:0 ~len:n_keys );
    ("matmul_distributed", fun () -> ignore (Linalg.Matmul.distributed ~zones a b));
    ( "outer_product_distributed",
      fun () -> ignore (Linalg.Outer_product.distributed ~zones:vzones va vb) );
    ("parallel_matmul", fun () -> ignore (Linalg.Parallel_matmul.multiply ~domains:2 a b));
    ("event_heap_push_pop", fun () -> Des.Event_heap.exercise heap ~rounds:1 ~batch:10_000);
    ( "response_to_line",
      fun () ->
        ignore (Sys.opaque_identity (Api.Response.to_line schedule));
        ignore (Sys.opaque_identity (Api.Response.to_line plan)) );
    (* The same two queries' wire lines, decoded and keyed. *)
    ( "request_decode",
      fun () ->
        List.iter
          (fun l ->
            match Api.Request.of_line l with
            | Ok r -> ignore (Sys.opaque_identity (Api.Fingerprint.of_request r))
            | Error e -> failwith ("request_decode: " ^ e))
          [ schedule_line; plan_line ] );
    (* The solve behind every nonlinear ratio/plan/schedule answer. *)
    ( "nonlinear_equal_finish",
      fun () ->
        List.iter
          (fun comm_model ->
            ignore
              (Dlt.Nonlinear.equal_finish_allocation comm_model nonlinear_star
                 (Dlt.Cost_model.Power 2.) ~total:1e4))
          [ Dlt.Schedule.Parallel; Dlt.Schedule.One_port ] );
  ]

let report_allocations () =
  Experiments.Report.section "Allocation counters (Gc words per run)";
  let table =
    Numerics.Ascii_table.create ~headers:[ "kernel"; "minor words"; "major words" ]
  in
  Numerics.Ascii_table.set_align table [ Numerics.Ascii_table.Left; Right; Right ];
  let measured =
    List.map
      (fun (name, f) ->
        (* Untimed warm-up so one-time costs (pool spawn, lazy globals)
           are not charged to the kernel. *)
        f ();
        Gc.full_major ();
        (* [Gc.quick_stat] allocates its result record: read it before
           the minor-words snapshot, so the record is not charged to f. *)
        let major0 = (Gc.quick_stat ()).Gc.major_words in
        let minor0 = Gc.minor_words () in
        f ();
        let minor = Gc.minor_words () -. minor0 in
        let major = (Gc.quick_stat ()).Gc.major_words -. major0 in
        Numerics.Ascii_table.add_row table
          [ name; Printf.sprintf "%.0f" minor; Printf.sprintf "%.0f" major ];
        (name, minor, major))
      (alloc_kernels ())
  in
  Numerics.Ascii_table.print table;
  let json =
    Obs.Json.Obj
      (List.map
         (fun (name, minor, major) ->
           ( name,
             Obs.Json.Obj
               [ ("minor_words", Obs.Json.Float minor); ("major_words", Obs.Json.Float major) ]
           ))
         measured)
  in
  (measured, json)

let write_alloc_baseline path measured =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Gates.alloc_baseline_to_string measured));
  Printf.printf "Wrote allocation baseline to %s\n%!" path

let run_micro_benchmarks () =
  Experiments.Report.section "Bechamel micro-benchmarks";
  let tests =
    [
      test_event_heap;
      test_peri_sum;
      test_peri_max;
      test_demand_driven;
      test_nonlinear_solver;
      test_sample_sort;
      test_histogram_sort;
      test_psrs;
      test_distributed_matmul;
      test_strassen;
      test_cannon;
      test_lu;
      test_cholesky;
      test_karatsuba;
      test_mapreduce;
    ]
  in
  let grouped = Test.make_grouped ~name:"nldl" tests in
  let quota = if quick then Time.second 0.2 else Time.second 0.5 in
  let cfg = Benchmark.cfg ~limit:2000 ~quota ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let table = Numerics.Ascii_table.create ~headers:[ "kernel"; "time/run"; "r^2" ] in
  Numerics.Ascii_table.set_align table [ Numerics.Ascii_table.Left; Right; Right ];
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  List.iter
    (fun (name, ols) ->
      let estimate =
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> e
        | Some [] | None -> Float.nan
      in
      let human =
        if estimate > 1e9 then Printf.sprintf "%.3f s" (estimate /. 1e9)
        else if estimate > 1e6 then Printf.sprintf "%.3f ms" (estimate /. 1e6)
        else if estimate > 1e3 then Printf.sprintf "%.3f us" (estimate /. 1e3)
        else Printf.sprintf "%.1f ns" estimate
      in
      let r2 =
        match Analyze.OLS.r_square ols with
        | Some r -> Printf.sprintf "%.4f" r
        | None -> "-"
      in
      Numerics.Ascii_table.add_row table [ name; human; r2 ])
    rows;
  Numerics.Ascii_table.print table;
  List.filter_map
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some (e :: _) -> Some (name, e)
      | Some [] | None -> None)
    rows

(* --- Part 2: paper reproduction ---------------------------------------- *)

let run_e1 () =
  let rows = Experiments.Nonlinear_exp.run () in
  Experiments.Nonlinear_exp.print rows

let run_e2 () =
  let sizes = if quick then [ 10_000; 100_000 ] else [ 10_000; 100_000; 1_000_000 ] in
  let rows = Experiments.Sorting_exp.run ~sizes () in
  Experiments.Sorting_exp.print rows;
  let hetero = Experiments.Sorting_exp.run_hetero ~trials:(if quick then 2 else 5) () in
  Experiments.Sorting_exp.print_hetero hetero

let run_e3 () =
  Experiments.Ratio_exp.print_bimodal (Experiments.Ratio_exp.run_bimodal ());
  Experiments.Ratio_exp.print_general
    (Experiments.Ratio_exp.run_general ~trials:(if quick then 5 else 20) ())

let run_fig4 () =
  let trials = if quick then 10 else 100 in
  let figure tag profile =
    let points = Experiments.Fig4.sweep ~trials profile in
    Experiments.Fig4.print
      ~title:
        (Printf.sprintf "Figure 4(%s): ratio to lower bound, %s speeds (%d trials/point)"
           tag (Platform.Profiles.name profile) trials)
      points
  in
  figure "a" Platform.Profiles.paper_homogeneous;
  figure "b" Platform.Profiles.paper_uniform;
  figure "c" Platform.Profiles.paper_lognormal

let run_e4 () =
  let trials = if quick then 3 else 10 in
  List.iter
    (fun profile ->
      Experiments.Time_exp.print
        ~profile:(Platform.Profiles.name profile)
        (Experiments.Time_exp.run ~trials profile))
    [ Platform.Profiles.paper_uniform; Platform.Profiles.paper_lognormal ]

let run_ablation () =
  let rows =
    Experiments.Mapreduce_exp.run ~trials:(if quick then 1 else 3)
      ~n:(if quick then 256 else 512) ()
  in
  Experiments.Mapreduce_exp.print rows;
  if quick then begin
    Experiments.Ablations.print_partitioners
      (Experiments.Ablations.partitioners ~trials:5 ());
    Experiments.Ablations.print_summa (Experiments.Ablations.summa_panels ~n:32 ());
    Experiments.Ablations.print_c25d (Experiments.Ablations.c25d ());
    Experiments.Ablations.print_splitters
      (Experiments.Ablations.splitters ~n:20_000 ());
    Experiments.Ablations.print_speculation (Experiments.Ablations.speculation ~trials:5 ());
    Experiments.Ablations.print_ordering (Experiments.Ablations.ordering ())
  end
  else Experiments.Ablations.print_all ()

let () =
  Printf.printf "nldl bench harness (version %s)%s\n%!" Cli.version
    (if quick then " [quick mode]" else "");
  if trace_path <> None then Obs.Trace.set_enabled true;
  if metrics_on then begin
    Obs.Metrics.set_enabled true;
    Obs.Hist.set_enabled true
  end;
  let kernels = run_micro_benchmarks () in
  let multicore = report_multicore () in
  let sort_throughput = report_sort_throughput () in
  let pool = report_pool_overhead () in
  let fig4_scaling = report_fig4_scaling () in
  (* obs_overhead first: it times the same big MapReduce under
     controlled flags, and its best pass feeds the des_throughput
     headline (see report_des_throughput). *)
  let obs_overhead, best_mr_seconds = report_obs_overhead () in
  let des_throughput = report_des_throughput ~best_mr_seconds () in
  let serve_throughput = report_serve_throughput () in
  let json_codec = report_json_codec () in
  let lint_time = report_lint_time () in
  let alloc_measured, allocations = report_allocations () in
  (match write_alloc_path with
  | Some path -> write_alloc_baseline path alloc_measured
  | None -> ());
  run_e1 ();
  run_e2 ();
  run_e3 ();
  run_fig4 ();
  run_e4 ();
  run_ablation ();
  let json =
    Obs.Json.Obj
      ([
         (* Envelope header shared with the Api.Response schema, so the
            artifact declares its own version like every other JSON
            surface. *)
         ("schema_version", Obs.Json.Int Api.Response.schema_version);
         ("provenance", Obs.Json.Obj [ ("solver", Obs.Json.String "nldl.bench") ]);
         ("version", Obs.Json.String Cli.version);
         ("quick", Obs.Json.Bool quick);
         ( "kernels_ns_per_run",
           Obs.Json.Obj (List.map (fun (name, ns) -> (name, Obs.Json.Float ns)) kernels) );
         ("pool_overhead", pool);
         ("multicore_sort", multicore);
         ("sort_throughput", sort_throughput);
         ("fig4_scaling", fig4_scaling);
         ("des_throughput", des_throughput);
         ("serve_throughput", serve_throughput);
         ("json_codec", json_codec);
         ("lint_time", lint_time);
         ("obs_overhead", obs_overhead);
         ("allocations", allocations);
       ]
      @ if metrics_on then [ ("metrics", Obs.Export.metrics_json ()) ] else [])
  in
  Obs.Json.write_file "BENCH_results.json" json;
  Printf.printf "\nWrote BENCH_results.json\n%!";
  (match trace_path with
  | None -> ()
  | Some path ->
      Obs.Trace.set_enabled false;
      Obs.Export.write_trace path;
      let dropped = Obs.Trace.dropped () in
      if dropped > 0 then
        Printf.printf "Trace ring buffers dropped %d events (oldest overwritten)\n%!" dropped;
      Printf.printf "Wrote trace to %s\n%!" path);
  Printf.printf "\nDone.\n%!";
  match check_baselines with
  | None -> ()
  | Some (committed, alloc_baseline) ->
      let rows = Gates.table @ Gates.alloc_rows alloc_baseline in
      if not (Gates.report (Gates.evaluate ~fresh:json ~committed rows)) then exit 1
