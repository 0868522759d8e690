module Rng = Numerics.Rng
module Profiles = Platform.Profiles

type row = {
  p : int;
  profile : string;
  fifo_comm : float;
  affinity_comm : float;
  zone_comm : float;
  fifo_makespan : float;
  affinity_makespan : float;
}

let run ?(n = 512) ?(chunk = 16) ?(processor_counts = [ 4; 16 ]) ?(trials = 3) ?(seed = 17)
    ?domains () =
  let rng = Rng.create ~seed () in
  let rows = ref [] in
  let profiles = [ Profiles.paper_homogeneous; Profiles.paper_uniform ] in
  List.iter
    (fun profile ->
      List.iter
        (fun p ->
          let fifo_comm = Array.make trials 0. in
          let affinity_comm = Array.make trials 0. in
          let zone_comm = Array.make trials 0. in
          let fifo_makespan = Array.make trials 0. in
          let affinity_makespan = Array.make trials 0. in
          (* Pre-split per-trial RNGs in sequential order, then run the
             trials on the domain pool: same streams, same output. *)
          let rngs = Array.make trials rng in
          for t = 0 to trials - 1 do
            rngs.(t) <- Rng.split rng
          done;
          Numerics.Parallel.parallel_for ?domains trials (fun t ->
            Obs.Trace.begin_span "mapreduce.trial";
            let trial_rng = rngs.(t) in
            let star = Profiles.generate trial_rng ~p profile in
            let a = Array.init n (fun _ -> Rng.uniform trial_rng (-1.) 1.) in
            let b = Array.init n (fun _ -> Rng.uniform trial_rng (-1.) 1.) in
            let job = Mapreduce.Jobs.outer_product ~a ~b ~chunk in
            let run_with policy =
              Mapreduce.Scheduler.run
                ~config:{ Mapreduce.Scheduler.default_config with policy }
                star ~tasks:job.Mapreduce.Engine.tasks
                ~block_size:job.Mapreduce.Engine.block_size
            in
            let fifo = run_with Mapreduce.Scheduler.Fifo in
            let affinity = run_with Mapreduce.Scheduler.Affinity in
            let zones = Linalg.Zone.for_platform star ~n in
            fifo_comm.(t) <- fifo.Mapreduce.Scheduler.communication;
            affinity_comm.(t) <- affinity.Mapreduce.Scheduler.communication;
            zone_comm.(t) <- float_of_int (Linalg.Zone.half_perimeter_sum zones);
            fifo_makespan.(t) <- fifo.Mapreduce.Scheduler.makespan;
            affinity_makespan.(t) <- affinity.Mapreduce.Scheduler.makespan;
            Obs.Trace.end_span "mapreduce.trial");
          rows :=
            {
              p;
              profile = Profiles.name profile;
              fifo_comm = Numerics.Stats.mean fifo_comm;
              affinity_comm = Numerics.Stats.mean affinity_comm;
              zone_comm = Numerics.Stats.mean zone_comm;
              fifo_makespan = Numerics.Stats.mean fifo_makespan;
              affinity_makespan = Numerics.Stats.mean affinity_makespan;
            }
            :: !rows)
        processor_counts)
    profiles;
  List.rev !rows

let table rows =
  {
    Report.title = "Ablation (paper conclusion): affinity-aware MapReduce scheduling";
    header =
      [ "profile"; "p"; "comm FIFO"; "comm affinity"; "comm zones"; "mkspan FIFO";
        "mkspan affinity" ];
    rows =
      List.map
        (fun r ->
          Report.
            [
              Text r.profile;
              Int r.p;
              Float (r.fifo_comm, 6);
              Float (r.affinity_comm, 6);
              Float (r.zone_comm, 6);
              Float (r.fifo_makespan, 5);
              Float (r.affinity_makespan, 5);
            ])
        rows;
  }
