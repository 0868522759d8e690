module Rng = Numerics.Rng
module Profiles = Platform.Profiles

type row = {
  bandwidth : float;
  het_ratio : float;
  hom_ratio : float;
  het_comm_share : float;
}

let run ?(p = 32) ?(n = 1e3) ?(bandwidths = [ 1e4; 1e2; 10.; 1.; 0.1 ]) ?(trials = 10)
    ?(seed = 41) ?domains profile =
  let rng = Rng.create ~seed () in
  List.map
    (fun bandwidth ->
      let het_ratios = Array.make trials 0. in
      let hom_ratios = Array.make trials 0. in
      let comm_shares = Array.make trials 0. in
      (* Pre-split per-trial RNGs in sequential order, then run the
         trials on the domain pool: same streams, same output. *)
      let rngs = Array.make trials rng in
      for t = 0 to trials - 1 do
        rngs.(t) <- Rng.split rng
      done;
      Numerics.Parallel.parallel_for ?domains trials (fun t ->
          Obs.Trace.begin_span "time.trial";
          let star = Profiles.generate ~bandwidth rngs.(t) ~p profile in
          let bound = Partition.Timed.compute_bound star ~n in
          let het = Partition.Timed.het star ~n in
          let hom = Partition.Timed.hom_balanced star ~n in
          het_ratios.(t) <- het.Partition.Timed.makespan /. bound;
          hom_ratios.(t) <- hom.Partition.Timed.makespan /. bound;
          comm_shares.(t) <-
            het.Partition.Timed.comm_makespan /. het.Partition.Timed.makespan;
          Obs.Trace.end_span "time.trial");
      {
        bandwidth;
        het_ratio = Numerics.Stats.mean het_ratios;
        hom_ratio = Numerics.Stats.mean hom_ratios;
        het_comm_share = Numerics.Stats.mean comm_shares;
      })
    bandwidths

let table ~profile rows =
  {
    Report.title =
      Printf.sprintf
        "E4 (extension): makespan vs compute bound under shrinking bandwidth (%s speeds)"
        profile;
    header = [ "bandwidth"; "het makespan/bound"; "hom/k makespan/bound"; "het comm share" ];
    rows =
      List.map
        (fun r ->
          Report.
            [
              Float (r.bandwidth, 4);
              Float (r.het_ratio, 5);
              Float (r.hom_ratio, 5);
              Float (r.het_comm_share, 4);
            ])
        rows;
  }
