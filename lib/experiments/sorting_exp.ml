module Rng = Numerics.Rng
module Profiles = Platform.Profiles
module Sample_sort = Sortlib.Sample_sort

type row = {
  n : int;
  p : int;
  s : int;
  predicted_gap : float;
  measured_gap : float;
  max_bucket_ratio : float;
  envelope : float;
  speedup : float;
  ideal_speedup : float;
}

type hetero_row = {
  p : int;
  n : int;
  imbalance : float;
  naive_imbalance : float;
}

let run ?(sizes = [ 10_000; 100_000; 1_000_000 ]) ?(processor_counts = [ 4; 16; 64 ])
    ?(seed = 11) () =
  let rng = Rng.create ~seed () in
  let rows = ref [] in
  List.iter
    (fun n ->
      List.iter
        (fun p ->
          Obs.Trace.begin_span "sorting.trial";
          let trial_rng = Rng.split rng in
          let keys = Array.init n (fun _ -> Rng.float trial_rng) in
          let s = Sample_sort.default_oversampling ~n in
          let splitters = Sample_sort.choose_splitters_floats trial_rng keys ~p ~s in
          let bucket_sizes = Kernels.Scatter.histogram_floats keys ~splitters in
          let star = Profiles.generate trial_rng ~p Profiles.paper_homogeneous in
          let timing = Sortlib.Parallel_model.evaluate star ~bucket_sizes ~s in
          rows :=
            {
              n;
              p;
              s;
              predicted_gap = Dlt.Fraction.sorting_gap ~n:(float_of_int n) ~p;
              measured_gap = 1. -. timing.Sortlib.Parallel_model.divisible_fraction;
              max_bucket_ratio = Sample_sort.max_bucket_ratio bucket_sizes;
              envelope = Sample_sort.theoretical_envelope ~n;
              speedup = timing.Sortlib.Parallel_model.speedup;
              ideal_speedup = Platform.Star.total_speed star;
            }
            :: !rows;
          Obs.Trace.end_span "sorting.trial")
        processor_counts)
    sizes;
  List.rev !rows

let naive_imbalance star ~n =
  (* Equal-size buckets on a heterogeneous platform: the imbalance the
     Section 3.2 splitters remove. *)
  let p = Platform.Star.size star in
  let per = float_of_int n /. float_of_int p in
  let work = if per <= 1. then 0. else per *. (log per /. log 2.) in
  let times =
    Array.map
      (fun (proc : Platform.Processor.t) -> work /. proc.Platform.Processor.speed)
      (Platform.Star.workers star)
  in
  let tmax = Array.fold_left Float.max 0. times in
  let tmin = Array.fold_left Float.min infinity times in
  if tmin > 0. then (tmax -. tmin) /. tmin else infinity

let run_hetero ?(sizes = [ 200_000 ]) ?(processor_counts = [ 4; 16; 64 ]) ?(trials = 5)
    ?(seed = 13) () =
  let rng = Rng.create ~seed () in
  let rows = ref [] in
  List.iter
    (fun n ->
      List.iter
        (fun p ->
          let imbalances = Array.make trials 0. in
          let naive = Array.make trials 0. in
          for t = 0 to trials - 1 do
            Obs.Trace.begin_span "sorting.hetero.trial";
            let trial_rng = Rng.split rng in
            let star = Profiles.generate trial_rng ~p Profiles.paper_uniform in
            let keys = Array.init n (fun _ -> Rng.float trial_rng) in
            let result = Sortlib.Hetero_sort.run trial_rng star ~keys in
            imbalances.(t) <- result.Sortlib.Hetero_sort.imbalance;
            naive.(t) <- naive_imbalance star ~n;
            Obs.Trace.end_span "sorting.hetero.trial"
          done;
          rows :=
            {
              p;
              n;
              imbalance = Numerics.Stats.mean imbalances;
              naive_imbalance = Numerics.Stats.mean naive;
            }
            :: !rows)
        processor_counts)
    sizes;
  List.rev !rows

let table rows =
  {
    Report.title = "E2 (paper §3): sorting as an almost-divisible load";
    header =
      [ "N"; "p"; "s"; "gap pred"; "gap meas"; "maxbkt/avg"; "envelope"; "speedup"; "ideal" ];
    rows =
      List.map
        (fun (r : row) ->
          Report.
            [
              Int r.n;
              Int r.p;
              Int r.s;
              Float (r.predicted_gap, 4);
              Float (r.measured_gap, 4);
              Float (r.max_bucket_ratio, 4);
              Float (r.envelope, 4);
              Float (r.speedup, 4);
              Float (r.ideal_speedup, 4);
            ])
        rows;
  }

let hetero_table rows =
  {
    Report.title = "E2b (§3.2): heterogeneous splitters, local-sort imbalance";
    header = [ "N"; "p"; "e (speed-aware)"; "e (equal buckets)" ];
    rows =
      List.map
        (fun r ->
          Report.
            [ Int r.n; Int r.p; Float (r.imbalance, 4); Float (r.naive_imbalance, 4) ])
        rows;
  }
