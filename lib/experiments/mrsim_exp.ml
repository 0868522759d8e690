(* Million-scale fault-injected MapReduce simulation, as a catalog
   experiment: the same workload the bench gates events/sec on
   (ISSUE 7's 10^5 workers x 10^6 tasks headline), runnable at any
   scale with the full observability stack — per-event-type counters,
   wait/service/fetch/retry latency histograms, sampled heap depth —
   and an optional downsampled sim-time Gantt through the shared
   Chrome-trace bridge. *)

module Scheduler = Mapreduce.Scheduler

type result = {
  workers : int;
  tasks : int;
  events : int;
  seconds : float;
  events_per_sec : float;
  makespan : float;
  retries : int;
  crashes : int;
  duplicates : int;
  unfinished : int;
}

let run ?(workers = 100_000) ?(tasks = 1_000_000) ?(crash_rate = 0.001)
    ?(slowdown_rate = 0.01) ?(fetch_failure = 0.01) ?(horizon = 20.)
    ?(seed = 42) () =
  if workers < 1 then invalid_arg "Mrsim_exp.run: workers must be >= 1";
  if tasks < 1 then invalid_arg "Mrsim_exp.run: tasks must be >= 1";
  let star = Platform.Star.of_speeds (List.init workers (fun _ -> 1.)) in
  let task_set =
    Array.init tasks (fun i -> Mapreduce.Task.make ~id:i ~data_ids:[| i |] ~cost:1.)
  in
  let faults =
    Fault.Plan.generate
      ~rng:(Numerics.Rng.create ~seed ())
      ~p:workers ~horizon ~crash_rate ~slowdown_rate ~fetch_failure ()
  in
  let t0 = Obs.Clock.now_ns () in
  let outcome = Scheduler.run ~faults star ~tasks:task_set ~block_size:(fun _ -> 1.) in
  let seconds = Obs.Clock.ns_to_s (Obs.Clock.now_ns () - t0) in
  let events = outcome.Scheduler.events_processed in
  ( {
      workers;
      tasks;
      events;
      seconds;
      events_per_sec = (if seconds > 0. then float_of_int events /. seconds else 0.);
      makespan = outcome.Scheduler.makespan;
      retries = outcome.Scheduler.retries;
      crashes = outcome.Scheduler.crashes_survived;
      duplicates = outcome.Scheduler.duplicates;
      unfinished = List.length outcome.Scheduler.unfinished;
    },
    outcome )

let table r =
  {
    Report.title = "mrsim: fault-injected MapReduce simulation";
    header =
      [ "workers"; "tasks"; "events"; "seconds"; "events_per_sec"; "makespan"; "retries";
        "crashes"; "duplicates"; "unfinished" ];
    rows =
      [
        Report.
          [
            Int r.workers;
            Int r.tasks;
            Int r.events;
            Float (r.seconds, 6);
            Float (r.events_per_sec, 4);
            Float (r.makespan, 6);
            Int r.retries;
            Int r.crashes;
            Int r.duplicates;
            Int r.unfinished;
          ];
      ];
  }
