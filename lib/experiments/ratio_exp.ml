module Profiles = Platform.Profiles
module Rng = Numerics.Rng

type bimodal_row = {
  factor : float;
  p : int;
  measured_rho : float;
  hom_over_lb : float;
  bound : float;
  sqrt_bound : float;
}

type general_row = {
  p : int;
  profile : string;
  measured_rho : float;
  general_bound : float;
}

let measured_rho star =
  let r = Partition.Strategies.evaluate star in
  r.Partition.Strategies.hom /. r.Partition.Strategies.het

let run_bimodal ?(p = 20) ?(factors = [ 1.; 4.; 9.; 16.; 25.; 49.; 100. ]) () =
  let rng = Rng.create ~seed:3 () in
  List.map
    (fun factor ->
      let star =
        Profiles.generate rng ~p (Profiles.Bimodal { slow = 1.; factor })
      in
      let r = Partition.Strategies.evaluate star in
      {
        factor;
        p;
        measured_rho = r.Partition.Strategies.hom /. r.Partition.Strategies.het;
        hom_over_lb = r.Partition.Strategies.hom;
        bound = Platform.Metrics.bimodal_rho_bound ~factor;
        sqrt_bound = sqrt factor -. 1.;
      })
    factors

let run_general ?(processor_counts = [ 10; 40; 100 ]) ?(trials = 20) ?(seed = 5) ?domains
    () =
  let rng = Rng.create ~seed () in
  let rows = ref [] in
  let profiles = [ Profiles.paper_uniform; Profiles.paper_lognormal ] in
  List.iter
    (fun profile ->
      List.iter
        (fun p ->
          let rhos = Array.make trials 0. in
          let bounds = Array.make trials 0. in
          (* Pre-split per-trial RNGs in sequential order, then run the
             trials on the domain pool: same streams, same output. *)
          let rngs = Array.make trials rng in
          for t = 0 to trials - 1 do
            rngs.(t) <- Rng.split rng
          done;
          Numerics.Parallel.parallel_for ?domains trials (fun t ->
              Obs.Trace.begin_span "ratio.trial";
              let star = Profiles.generate rngs.(t) ~p profile in
              rhos.(t) <- measured_rho star;
              bounds.(t) <- Platform.Metrics.hom_over_het_bound star;
              Obs.Trace.end_span "ratio.trial");
          rows :=
            {
              p;
              profile = Profiles.name profile;
              measured_rho = Numerics.Stats.mean rhos;
              general_bound = Numerics.Stats.mean bounds;
            }
            :: !rows)
        processor_counts)
    profiles;
  List.rev !rows

let bimodal_table rows =
  {
    Report.title = "E3 (paper §4.1.3): rho on half-slow / half-k-fast platforms";
    header = [ "k"; "p"; "rho measured"; "hom/LB"; "(1+k)/(1+sqrt k)"; "sqrt k - 1" ];
    rows =
      List.map
        (fun r ->
          Report.
            [
              Float (r.factor, 4);
              Int r.p;
              Float (r.measured_rho, 4);
              Float (r.hom_over_lb, 4);
              Float (r.bound, 4);
              Float (r.sqrt_bound, 4);
            ])
        rows;
  }

let general_table rows =
  {
    Report.title = "E3b: general bound rho >= (4/7)·Σs/(√s1·Σ√s)";
    header = [ "profile"; "p"; "rho measured"; "(4/7) bound" ];
    rows =
      List.map
        (fun r ->
          Report.
            [ Text r.profile; Int r.p; Float (r.measured_rho, 4); Float (r.general_bound, 4) ])
        rows;
  }
