(* The fault-injection layer: deterministic plans, the fault-aware
   scheduler semantics and its retry backoff. *)

module Plan = Fault.Plan
module Clock = Fault.Clock
module Scheduler = Mapreduce.Scheduler
module Task = Mapreduce.Task
module Star = Platform.Star
module Rng = Numerics.Rng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf msg ?(eps = 1e-9) expected actual =
  Alcotest.(check (float eps)) msg expected actual

let unit_block _ = 1.

let simple_tasks ?(cost = 1.) n =
  Array.init n (fun i -> Task.make ~id:i ~data_ids:[| i |] ~cost)

let all_complete outcome =
  Array.for_all Float.is_finite outcome.Scheduler.completion

(* --- Fault.Plan construction and queries --- *)

let test_plan_validation () =
  let expect_invalid msg f =
    checkb msg true
      (match f () with exception Invalid_argument _ -> true | _ -> false)
  in
  expect_invalid "worker out of range" (fun () ->
      Plan.make ~crashes:[ { Plan.worker = 3; at = 1.; recovery = None } ] ~p:2 ());
  expect_invalid "recovery before crash" (fun () ->
      Plan.make ~crashes:[ { Plan.worker = 0; at = 2.; recovery = Some 1. } ] ~p:1 ());
  expect_invalid "overlapping crash intervals" (fun () ->
      Plan.make
        ~crashes:
          [
            { Plan.worker = 0; at = 1.; recovery = Some 5. };
            { Plan.worker = 0; at = 3.; recovery = Some 9. };
          ]
        ~p:1 ());
  expect_invalid "crash after permanent crash" (fun () ->
      Plan.make
        ~crashes:
          [
            { Plan.worker = 0; at = 1.; recovery = None };
            { Plan.worker = 0; at = 3.; recovery = Some 9. };
          ]
        ~p:1 ());
  expect_invalid "slowdown factor < 1" (fun () ->
      Plan.make
        ~slowdowns:[ { Plan.worker = 0; from_time = 0.; until = 1.; factor = 0.5 } ]
        ~p:1 ());
  expect_invalid "fetch probability out of range" (fun () ->
      Plan.make ~fetch_failure:[ (0, 1.5) ] ~p:1 ())

let test_plan_slowdown_integrator () =
  (* Factor-2 window on [2, 6): work accrues at half speed inside. *)
  let plan =
    Plan.make
      ~slowdowns:[ { Plan.worker = 0; from_time = 2.; until = 6.; factor = 2. } ]
      ~p:1 ()
  in
  (* 3 units of work from t=0: 2 before the window, 1 inside costs 2. *)
  checkf "advance through window" 4. (Plan.advance plan ~worker:0 ~start:0. ~duration:3.);
  (* advance and work_between are inverses. *)
  let finish = Plan.advance plan ~worker:0 ~start:1. ~duration:4. in
  checkf "inverse" 4. (Plan.work_between plan ~worker:0 ~start:1. ~until:finish);
  (* Other workers are unaffected. *)
  checkf "unaffected worker" 3.
    (Plan.advance plan ~worker:0 ~start:10. ~duration:3. -. 10.)

let test_plan_fetch_hash_deterministic () =
  let plan = Plan.make ~fetch_failure:[ (0, 0.5); (1, 0.5) ] ~seed:7 ~p:2 () in
  let fails w a = Plan.fetch_fails plan ~worker:w ~attempt:a in
  (* Same query twice: same answer (pure hash, no hidden state). *)
  for a = 0 to 63 do
    checkb "stable" (fails 0 a) (fails 0 a);
    checkb "stable w1" (fails 1 a) (fails 1 a)
  done;
  (* Roughly half the attempts fail at q = 0.5. *)
  let n = ref 0 in
  for a = 0 to 999 do
    if fails 0 a then incr n
  done;
  checkb "hash is unbiased-ish" true (!n > 400 && !n < 600);
  (* q = 0 never fails, q = 1 always fails. *)
  let sure = Plan.make ~fetch_failure:[ (0, 1.) ] ~p:1 () in
  checkb "q=1 fails" true (Plan.fetch_fails sure ~worker:0 ~attempt:3);
  checkb "q=0 ok" false (Plan.fetch_fails Plan.none ~worker:0 ~attempt:3)

let test_plan_generate_deterministic () =
  let gen seed =
    Plan.generate ~rng:(Rng.create ~seed ()) ~p:8 ~horizon:100. ~crash_rate:0.5
      ~slowdown_rate:0.5 ~fetch_failure:0.1 ()
  in
  let a = gen 42 and b = gen 42 and c = gen 43 in
  checkb "same seed, same crashes" true (Plan.crashes a = Plan.crashes b);
  checkb "same seed, same slowdowns" true (Plan.slowdowns a = Plan.slowdowns b);
  checkb "different seed, different plan" true
    (Plan.crashes a <> Plan.crashes c || Plan.slowdowns a <> Plan.slowdowns c)

(* --- scheduler under injected faults --- *)

let test_crash_before_first_assignment () =
  (* Worker 0 is down from t=0; worker 1 does everything. *)
  let star = Star.of_speeds [ 1.; 1. ] in
  let plan =
    Plan.make ~crashes:[ { Plan.worker = 0; at = 0.; recovery = None } ] ~p:2 ()
  in
  let outcome =
    Scheduler.run ~faults:plan star ~tasks:(simple_tasks 6) ~block_size:unit_block
  in
  checkb "all tasks complete" true (all_complete outcome);
  checki "crashed worker ran nothing" 0 outcome.Scheduler.per_worker_tasks.(0);
  checki "survivor ran everything" 6 outcome.Scheduler.per_worker_tasks.(1);
  checki "one idle worker" 1 outcome.Scheduler.idle_workers;
  checki "crash recorded" 1 outcome.Scheduler.crashes_survived

let test_crash_of_sole_copy_of_last_task () =
  (* One worker, crash mid-task with recovery: the in-flight copy dies,
     is re-enqueued with backoff, and completes after recovery. *)
  let star = Star.of_speeds ~bandwidth:1e9 [ 1. ] in
  let tasks = simple_tasks ~cost:10. 1 in
  let plan =
    Plan.make ~crashes:[ { Plan.worker = 0; at = 5.; recovery = Some 8. } ] ~p:1 ()
  in
  let outcome = Scheduler.run ~faults:plan star ~tasks ~block_size:(fun _ -> 0.) in
  checkb "task completes after recovery" true (all_complete outcome);
  checki "two copies started" 2 outcome.Scheduler.attempts.(0);
  checkb "retry recorded" true (outcome.Scheduler.retries >= 1);
  checkb "restarts after recovery" true (outcome.Scheduler.makespan >= 8. +. 10.);
  checkb "killed progress counted as waste" true (outcome.Scheduler.wasted_work > 0.);
  checkb "fault log has the crash" true
    (List.exists
       (function Clock.Crash { worker = 0; _ } -> true | _ -> false)
       outcome.Scheduler.fault_log)

let test_permanent_crash_leaves_unfinished () =
  (* Sole worker dies for good mid-run: remaining tasks stay unfinished
     but the scheduler still terminates. *)
  let star = Star.of_speeds ~bandwidth:1e9 [ 1. ] in
  let plan =
    Plan.make ~crashes:[ { Plan.worker = 0; at = 2.5; recovery = None } ] ~p:1 ()
  in
  let outcome =
    Scheduler.run ~faults:plan star ~tasks:(simple_tasks 5) ~block_size:(fun _ -> 0.)
  in
  checkb "some tasks unfinished" true (outcome.Scheduler.unfinished <> []);
  checkb "early tasks done" true (Float.is_finite outcome.Scheduler.completion.(0))

let test_total_fetch_failure_exhausts_retries () =
  (* Every fetch on the only link fails: retries exhaust, the pair is
     quarantined, the task can never run — but the run terminates. *)
  let star = Star.of_speeds [ 1. ] in
  let plan = Plan.make ~fetch_failure:[ (0, 1.) ] ~p:1 () in
  let outcome =
    Scheduler.run ~faults:plan star ~tasks:(simple_tasks 2) ~block_size:unit_block
  in
  checki "nothing completes" 2 (List.length outcome.Scheduler.unfinished);
  checkb "fetch retries recorded" true (outcome.Scheduler.retries >= 3);
  checkb "quarantine in fault log" true
    (List.exists
       (function Clock.Quarantine _ -> true | _ -> false)
       outcome.Scheduler.fault_log);
  (* A second worker with a clean link rescues the same workload. *)
  let star2 = Star.of_speeds [ 1.; 1. ] in
  let plan2 = Plan.make ~fetch_failure:[ (0, 1.) ] ~p:2 () in
  let rescued =
    Scheduler.run ~faults:plan2 star2 ~tasks:(simple_tasks 2) ~block_size:unit_block
  in
  checkb "clean worker rescues" true (all_complete rescued)

let test_fetch_failure_retries_then_succeeds () =
  (* Flaky but not dead: with q = 0.5 some fetches fail, all tasks still
     complete and every failure shows up in the log. *)
  let star = Star.of_speeds [ 1.; 1. ] in
  let plan = Plan.make ~fetch_failure:[ (0, 0.5); (1, 0.5) ] ~seed:11 ~p:2 () in
  let outcome =
    Scheduler.run ~faults:plan star ~tasks:(simple_tasks 16) ~block_size:unit_block
  in
  checkb "all complete despite flaky links" true (all_complete outcome);
  let failures =
    List.length
      (List.filter
         (function Clock.Fetch_failure _ -> true | _ -> false)
         outcome.Scheduler.fault_log)
  in
  checkb "failures were injected" true (failures > 0);
  checkb "makespan degraded" true
    (outcome.Scheduler.makespan
    > (Scheduler.run star ~tasks:(simple_tasks 16) ~block_size:unit_block)
        .Scheduler.makespan)

let faulted_run seed =
  let rng = Rng.create ~seed () in
  let star = Star.of_speeds [ 1.; 2.; 1.; 0.5 ] in
  let plan =
    Plan.generate ~rng ~p:4 ~horizon:30. ~crash_rate:0.6 ~slowdown_rate:0.5
      ~fetch_failure:0.2 ()
  in
  Scheduler.run
    ~config:{ Scheduler.default_config with speculation = Scheduler.Late { threshold = 0.5 } }
    ~jitter:(Rng.split rng, 0.6)
    ~faults:plan star ~tasks:(simple_tasks ~cost:4. 24) ~block_size:unit_block

let test_replay_determinism_across_domains () =
  (* The same seeded plan replays byte-identically whether the
     surrounding trial loop runs on 1 domain or several: outcomes are
     pure functions of their inputs, so hammer the same run from a
     parallel loop and compare every field. *)
  let reference = faulted_run 99 in
  let trials = 8 in
  let results = Array.make trials None in
  Numerics.Parallel.parallel_for ~domains:4 trials (fun t ->
      results.(t) <- Some (faulted_run 99));
  Array.iter
    (fun r ->
      match r with
      | None -> Alcotest.fail "trial did not run"
      | Some o ->
          checkb "assignments identical" true
            (o.Scheduler.assignments = reference.Scheduler.assignments);
          checkb "completions identical" true
            (o.Scheduler.completion = reference.Scheduler.completion);
          checkb "fault log identical" true
            (o.Scheduler.fault_log = reference.Scheduler.fault_log);
          checkf "same makespan" reference.Scheduler.makespan o.Scheduler.makespan;
          checki "same retries" reference.Scheduler.retries o.Scheduler.retries)
    results

let test_outcome_bookkeeping () =
  (* A run with >= 1 crash and >= 1 fetch failure: all tasks complete
     and the outcome's counters agree with the fault log. *)
  let star = Star.of_speeds [ 1.; 1. ] in
  let plan =
    Plan.make
      ~crashes:[ { Plan.worker = 0; at = 3.; recovery = Some 6. } ]
      ~fetch_failure:[ (1, 0.4) ] ~seed:3 ~p:2 ()
  in
  let outcome =
    Scheduler.run ~faults:plan star ~tasks:(simple_tasks ~cost:2. 12)
      ~block_size:unit_block
  in
  checkb "all tasks complete" true (all_complete outcome);
  let count f = List.length (List.filter f outcome.Scheduler.fault_log) in
  checki "crashes match log" outcome.Scheduler.crashes_survived
    (count (function Clock.Crash _ -> true | _ -> false));
  let logged_failures = count (function Clock.Fetch_failure _ -> true | _ -> false) in
  let logged_retries = count (function Clock.Task_retry _ -> true | _ -> false) in
  checkb "a fetch failure was injected" true (logged_failures > 0);
  checki "retries = fetch failures + re-enqueues" outcome.Scheduler.retries
    (logged_failures + logged_retries);
  checkb "attempts cover completions" true
    (Array.for_all (fun a -> a >= 1) outcome.Scheduler.attempts)

let test_slowdown_stretches_makespan () =
  let star = Star.of_speeds ~bandwidth:1e9 [ 1. ] in
  let tasks = simple_tasks ~cost:4. 3 in
  let plan =
    Plan.make
      ~slowdowns:[ { Plan.worker = 0; from_time = 0.; until = 100.; factor = 3. } ]
      ~p:1 ()
  in
  let plain = Scheduler.run star ~tasks ~block_size:(fun _ -> 0.) in
  let slowed = Scheduler.run ~faults:plan star ~tasks ~block_size:(fun _ -> 0.) in
  checkf "3x slower" (3. *. plain.Scheduler.makespan) slowed.Scheduler.makespan

let test_backoff_delay () =
  let r = { Mapreduce.Scheduler.max_attempts = 10; base_delay = 1.; max_delay = 5. } in
  checkf "first" 1. (Mapreduce.Scheduler.backoff_delay r ~attempt:1);
  checkf "doubles" 2. (Mapreduce.Scheduler.backoff_delay r ~attempt:2);
  checkf "capped" 5. (Mapreduce.Scheduler.backoff_delay r ~attempt:5);
  checkf "zero base means no sleep" 0.
    (Mapreduce.Scheduler.backoff_delay { r with base_delay = 0. } ~attempt:7)

let qcheck_faulted_runs_terminate =
  QCheck.Test.make
    ~name:"scheduler: every generated fault plan terminates with consistent books"
    ~count:60
    QCheck.(triple small_int (float_range 0. 0.8) (float_range 0. 0.6))
    (fun (seed, crash_rate, fetch_failure) ->
      let rng = Rng.create ~seed:(seed + 1) () in
      let p = 2 + (seed mod 3) in
      let star = Star.of_speeds (List.init p (fun i -> 1. +. float_of_int i)) in
      let plan =
        Plan.generate ~rng ~p ~horizon:20. ~crash_rate ~fetch_failure
          ~slowdown_rate:0.3 ()
      in
      let o =
        Scheduler.run ~faults:plan star ~tasks:(simple_tasks ~cost:2. 12)
          ~block_size:unit_block
      in
      let n_done =
        Array.fold_left (fun acc c -> if Float.is_finite c then acc + 1 else acc) 0
          o.Scheduler.completion
      in
      (* Completed + unfinished partition the tasks; finished tasks have
         a winner and at least one attempt. *)
      n_done + List.length o.Scheduler.unfinished = 12
      && Array.for_all (fun a -> a >= 0) o.Scheduler.attempts
      && List.for_all (fun i -> o.Scheduler.winner.(i) = -1) o.Scheduler.unfinished
      && o.Scheduler.wasted_work >= 0.)

(* --- byte-identity of the rewritten scheduler vs the frozen oracle --- *)

module Oracle = Scheduler_oracle

let oracle_config (c : Scheduler.config) : Oracle.config =
  {
    Oracle.policy =
      (match c.Scheduler.policy with
      | Scheduler.Fifo -> Oracle.Fifo
      | Scheduler.Affinity -> Oracle.Affinity);
    speculation =
      (match c.Scheduler.speculation with
      | Scheduler.Off -> Oracle.Off
      | Scheduler.At_idle -> Oracle.At_idle
      | Scheduler.Late { threshold } -> Oracle.Late { threshold });
    retry = c.Scheduler.retry;
    fetch_timeout = c.Scheduler.fetch_timeout;
  }

(* Exact (=) on every outcome field, floats included: the rewrite must
   reproduce the old scheduler bit for bit, not approximately. *)
let assert_identical name (n : Scheduler.outcome) (o : Oracle.outcome) =
  let chk field ok = checkb (name ^ ": " ^ field) true ok in
  let flat_n =
    List.map
      (fun (a : Scheduler.assignment) ->
        (a.Scheduler.task, a.worker, a.start, a.fetch_end, a.finish, a.fetched))
      n.Scheduler.assignments
  in
  let flat_o =
    List.map
      (fun (a : Oracle.assignment) ->
        (a.Oracle.task, a.worker, a.start, a.fetch_end, a.finish, a.fetched))
      o.Oracle.assignments
  in
  chk "assignments" (flat_n = flat_o);
  chk "completion" (n.Scheduler.completion = o.Oracle.completion);
  chk "winner" (n.Scheduler.winner = o.Oracle.winner);
  chk "makespan" (n.Scheduler.makespan = o.Oracle.makespan);
  chk "busy_until" (n.Scheduler.busy_until = o.Oracle.busy_until);
  chk "communication" (n.Scheduler.communication = o.Oracle.communication);
  chk "per_worker_comm" (n.Scheduler.per_worker_comm = o.Oracle.per_worker_comm);
  chk "per_worker_tasks" (n.Scheduler.per_worker_tasks = o.Oracle.per_worker_tasks);
  chk "duplicates" (n.Scheduler.duplicates = o.Oracle.duplicates);
  chk "retries" (n.Scheduler.retries = o.Oracle.retries);
  chk "crashes_survived" (n.Scheduler.crashes_survived = o.Oracle.crashes_survived);
  chk "attempts" (n.Scheduler.attempts = o.Oracle.attempts);
  chk "idle_workers" (n.Scheduler.idle_workers = o.Oracle.idle_workers);
  chk "unfinished" (n.Scheduler.unfinished = o.Oracle.unfinished);
  chk "wasted_work" (n.Scheduler.wasted_work = o.Oracle.wasted_work);
  chk "fault_log" (n.Scheduler.fault_log = o.Oracle.fault_log);
  chk "events were counted" (n.Scheduler.events_processed > 0)

(* Each scenario rebuilds its plan and jitter RNG from scratch per side,
   so both implementations consume identical randomness. *)
let identity_scenarios :
    (string
    * (unit ->
      Scheduler.config
      * (Rng.t * float) option
      * Plan.t
      * Star.t
      * Task.t array
      * (int -> float)))
    list =
  let affinity_tasks n =
    Array.init n (fun i ->
        Task.make ~id:i ~data_ids:[| i mod 8; (i + 1) mod 8 |] ~cost:2.)
  in
  let generated ~seed ~config () =
    let rng = Rng.create ~seed () in
    let star = Star.of_speeds [ 1.; 2.; 1.; 0.5 ] in
    let plan =
      Plan.generate ~rng ~p:4 ~horizon:30. ~crash_rate:0.6 ~slowdown_rate:0.5
        ~fetch_failure:0.2 ()
    in
    (config, Some (Rng.split rng, 0.6), plan, star, simple_tasks ~cost:4. 24, unit_block)
  in
  let late = { Scheduler.default_config with speculation = Scheduler.Late { threshold = 0.5 } } in
  let at_idle_affinity =
    { Scheduler.default_config with policy = Scheduler.Affinity; speculation = Scheduler.At_idle }
  in
  [
    ( "plain fifo",
      fun () ->
        ( Scheduler.default_config,
          None,
          Plan.none,
          Star.of_speeds [ 1.; 2.; 1. ],
          simple_tasks 16,
          unit_block ) );
    ( "plain affinity shared blocks",
      fun () ->
        ( { Scheduler.default_config with policy = Scheduler.Affinity },
          None,
          Plan.none,
          Star.of_speeds [ 1.; 2. ],
          affinity_tasks 16,
          unit_block ) );
    ( "crash before first assignment",
      fun () ->
        ( Scheduler.default_config,
          None,
          Plan.make ~crashes:[ { Plan.worker = 0; at = 0.; recovery = None } ] ~p:2 (),
          Star.of_speeds [ 1.; 1. ],
          simple_tasks 6,
          unit_block ) );
    ( "crash with recovery",
      fun () ->
        ( Scheduler.default_config,
          None,
          Plan.make ~crashes:[ { Plan.worker = 0; at = 5.; recovery = Some 8. } ] ~p:1 (),
          Star.of_speeds ~bandwidth:1e9 [ 1. ],
          simple_tasks ~cost:10. 1,
          fun _ -> 0. ) );
    ( "permanent crash",
      fun () ->
        ( Scheduler.default_config,
          None,
          Plan.make ~crashes:[ { Plan.worker = 0; at = 2.5; recovery = None } ] ~p:1 (),
          Star.of_speeds ~bandwidth:1e9 [ 1. ],
          simple_tasks 5,
          fun _ -> 0. ) );
    ( "total fetch failure",
      fun () ->
        ( Scheduler.default_config,
          None,
          Plan.make ~fetch_failure:[ (0, 1.) ] ~p:1 (),
          Star.of_speeds [ 1. ],
          simple_tasks 2,
          unit_block ) );
    ( "flaky links",
      fun () ->
        ( Scheduler.default_config,
          None,
          Plan.make ~fetch_failure:[ (0, 0.5); (1, 0.5) ] ~seed:11 ~p:2 (),
          Star.of_speeds [ 1.; 1. ],
          simple_tasks 16,
          unit_block ) );
    ( "crash plus flaky fetch",
      fun () ->
        ( Scheduler.default_config,
          None,
          Plan.make
            ~crashes:[ { Plan.worker = 0; at = 3.; recovery = Some 6. } ]
            ~fetch_failure:[ (1, 0.4) ] ~seed:3 ~p:2 (),
          Star.of_speeds [ 1.; 1. ],
          simple_tasks ~cost:2. 12,
          unit_block ) );
    ( "slowdown window",
      fun () ->
        ( Scheduler.default_config,
          None,
          Plan.make
            ~slowdowns:[ { Plan.worker = 0; from_time = 0.; until = 100.; factor = 3. } ]
            ~p:1 (),
          Star.of_speeds ~bandwidth:1e9 [ 1. ],
          simple_tasks ~cost:4. 3,
          fun _ -> 0. ) );
    ("generated + LATE, seed 99", generated ~seed:99 ~config:late);
    ("generated + LATE, seed 7", generated ~seed:7 ~config:late);
    ("generated + at-idle affinity, seed 5", generated ~seed:5 ~config:at_idle_affinity);
  ]

let test_scheduler_byte_identity () =
  List.iter
    (fun (name, mk) ->
      let config, jitter_n, faults, star, tasks, block_size = mk () in
      let o_new = Scheduler.run ~config ?jitter:jitter_n ~faults star ~tasks ~block_size in
      let config_o, jitter_o, faults_o, star_o, tasks_o, block_size_o = mk () in
      let o_old =
        Oracle.run ~config:(oracle_config config_o) ?jitter:jitter_o ~faults:faults_o
          star_o ~tasks:tasks_o ~block_size:block_size_o
      in
      assert_identical name o_new o_old)
    identity_scenarios

let suites =
  [
    ( "fault plans",
      [
        Alcotest.test_case "validation" `Quick test_plan_validation;
        Alcotest.test_case "slowdown integrator" `Quick test_plan_slowdown_integrator;
        Alcotest.test_case "fetch hash deterministic" `Quick
          test_plan_fetch_hash_deterministic;
        Alcotest.test_case "generate deterministic" `Quick
          test_plan_generate_deterministic;
      ] );
    ( "fault-aware scheduler",
      [
        Alcotest.test_case "crash before first assignment" `Quick
          test_crash_before_first_assignment;
        Alcotest.test_case "crash of sole copy of last task" `Quick
          test_crash_of_sole_copy_of_last_task;
        Alcotest.test_case "permanent crash leaves unfinished" `Quick
          test_permanent_crash_leaves_unfinished;
        Alcotest.test_case "100% fetch failure exhausts retries" `Quick
          test_total_fetch_failure_exhausts_retries;
        Alcotest.test_case "flaky links retried to success" `Quick
          test_fetch_failure_retries_then_succeeds;
        Alcotest.test_case "replay determinism across domains" `Quick
          test_replay_determinism_across_domains;
        Alcotest.test_case "outcome bookkeeping" `Quick test_outcome_bookkeeping;
        Alcotest.test_case "slowdown stretches makespan" `Quick
          test_slowdown_stretches_makespan;
        QCheck_alcotest.to_alcotest qcheck_faulted_runs_terminate;
        Alcotest.test_case "byte-identity vs pre-rewrite oracle" `Quick
          test_scheduler_byte_identity;
        Alcotest.test_case "backoff delays" `Quick test_backoff_delay;
      ] );
  ]
