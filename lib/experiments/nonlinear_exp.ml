module Star = Platform.Star
module Profiles = Platform.Profiles
module Rng = Numerics.Rng

type row = {
  alpha : float;
  p : int;
  predicted : float;
  measured_homogeneous : float;
  measured_heterogeneous : float;
  makespan : float;
}

let measured_fraction star cost ~total =
  let allocation, _ =
    Dlt.Nonlinear.equal_finish_allocation Dlt.Schedule.Parallel star cost ~total
  in
  Dlt.Fraction.done_fraction cost ~allocation ~total

let run ?(alphas = [ 1.5; 2.; 3. ]) ?(processor_counts = [ 2; 4; 16; 64; 256 ])
    ?(total = 1e4) ?(seed = 7) () =
  let rng = Rng.create ~seed () in
  let rows = ref [] in
  List.iter
    (fun alpha ->
      let cost = Dlt.Cost_model.of_alpha alpha in
      List.iter
        (fun p ->
          Obs.Trace.begin_span "nonlinear.trial";
          let hom = Profiles.generate (Rng.split rng) ~p Profiles.paper_homogeneous in
          let het = Profiles.generate (Rng.split rng) ~p Profiles.paper_uniform in
          let allocation, makespan =
            Dlt.Nonlinear.equal_finish_allocation Dlt.Schedule.Parallel hom cost ~total
          in
          let measured_homogeneous =
            Dlt.Fraction.done_fraction cost ~allocation ~total
          in
          rows :=
            {
              alpha;
              p;
              predicted = Dlt.Fraction.power_partial_fraction ~alpha ~p;
              measured_homogeneous;
              measured_heterogeneous = measured_fraction het cost ~total;
              makespan;
            }
            :: !rows;
          Obs.Trace.end_span "nonlinear.trial")
        processor_counts)
    alphas;
  List.rev !rows

let table rows =
  {
    Report.title =
      "E1 (paper §2): divisible round of an N^alpha load — work fraction done";
    header =
      [ "alpha"; "p"; "p^(1-a) predicted"; "measured (hom)"; "measured (het)"; "makespan" ];
    rows =
      List.map
        (fun r ->
          Report.
            [
              Float (r.alpha, 4);
              Int r.p;
              Float (r.predicted, 5);
              Float (r.measured_homogeneous, 5);
              Float (r.measured_heterogeneous, 5);
              Float (r.makespan, 4);
            ])
        rows;
  }
