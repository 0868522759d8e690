module Rng = Numerics.Rng
module Scheduler = Mapreduce.Scheduler

type row = {
  crash_rate : float;
  sigma : float;
  policy : string;
  makespan : float;
  degradation : float;
  wasted : float;
  retries : float;
  crashes : float;
  unfinished : float;
}

let policies =
  [
    ("off", Scheduler.Off);
    ("at-idle", Scheduler.At_idle);
    ("late", Scheduler.Late { threshold = 0.25 });
  ]

let run ?(tasks = 24) ?(p = 4) ?(crash_rates = [ 0.; 0.3; 0.6 ])
    ?(sigmas = [ 0.; 0.8 ]) ?(fetch_failure = 0.05) ?(trials = 5) ?(seed = 4242)
    ?domains () =
  let star = Platform.Star.of_speeds (List.init p (fun _ -> 1.)) in
  let task_set =
    Array.init tasks (fun i -> Mapreduce.Task.make ~id:i ~data_ids:[| i |] ~cost:10.)
  in
  let block_size _ = 2. in
  let rng = Rng.create ~seed () in
  let n_pol = List.length policies in
  let rows = ref [] in
  List.iter
    (fun crash_rate ->
      List.iter
        (fun sigma ->
          let base = Array.make trials 0. in
          let mk = Array.make_matrix n_pol trials 0. in
          let wa = Array.make_matrix n_pol trials 0. in
          let re = Array.make_matrix n_pol trials 0. in
          let cr = Array.make_matrix n_pol trials 0. in
          let un = Array.make_matrix n_pol trials 0. in
          (* Pre-split per-trial RNGs in sequential order, then run the
             trials on the domain pool: same streams, same output. *)
          let rngs = Array.make trials rng in
          for t = 0 to trials - 1 do
            rngs.(t) <- Rng.split rng
          done;
          Numerics.Parallel.parallel_for ?domains trials (fun t ->
              Obs.Trace.begin_span "faults.trial";
              let trial_rng = rngs.(t) in
              let jitter_rng = Rng.split trial_rng in
              let plan_rng = Rng.split trial_rng in
              (* Fault-free baseline: calibrates the plan horizon and
                 the degradation denominator, same jitter stream. *)
              let baseline =
                Scheduler.run
                  ~jitter:(Rng.copy jitter_rng, sigma)
                  star ~tasks:task_set ~block_size
              in
              base.(t) <- baseline.Scheduler.makespan;
              let horizon = Float.max baseline.Scheduler.makespan 1. in
              let plan =
                Fault.Plan.generate ~rng:plan_rng ~p ~horizon ~crash_rate
                  ~fetch_failure ()
              in
              List.iteri
                (fun k (_, speculation) ->
                  let config = { Scheduler.default_config with speculation } in
                  let o =
                    Scheduler.run ~config
                      ~jitter:(Rng.copy jitter_rng, sigma)
                      ~faults:plan star ~tasks:task_set ~block_size
                  in
                  mk.(k).(t) <- o.Scheduler.makespan;
                  wa.(k).(t) <- o.Scheduler.wasted_work;
                  re.(k).(t) <- float_of_int o.Scheduler.retries;
                  cr.(k).(t) <- float_of_int o.Scheduler.crashes_survived;
                  un.(k).(t) <- float_of_int (List.length o.Scheduler.unfinished))
                policies;
              Obs.Trace.end_span "faults.trial");
          let mean = Numerics.Stats.mean in
          let base_mean = Float.max (mean base) 1e-9 in
          List.iteri
            (fun k (name, _) ->
              rows :=
                {
                  crash_rate;
                  sigma;
                  policy = name;
                  makespan = mean mk.(k);
                  degradation = mean mk.(k) /. base_mean;
                  wasted = mean wa.(k);
                  retries = mean re.(k);
                  crashes = mean cr.(k);
                  unfinished = mean un.(k);
                }
                :: !rows)
            policies)
        sigmas)
    crash_rates;
  List.rev !rows

let table rows =
  {
    Report.title = "Robustness: makespan degradation under injected faults";
    header =
      [ "crash rate"; "sigma"; "policy"; "makespan"; "degradation"; "wasted"; "retries";
        "crashes"; "unfinished" ];
    rows =
      List.map
        (fun r ->
          Report.
            [
              Float (r.crash_rate, 4);
              Float (r.sigma, 4);
              Text r.policy;
              Float (r.makespan, 5);
              Float (r.degradation, 4);
              Float (r.wasted, 3);
              Float (r.retries, 2);
              Float (r.crashes, 2);
              Float (r.unfinished, 2);
            ])
        rows;
  }
