module Stats = Numerics.Stats
module Rng = Numerics.Rng

type point = {
  p : int;
  het : Stats.summary;
  hom : Stats.summary;
  hom_over_k : Stats.summary;
  mean_k : float;
}

let default_processor_counts = [ 10; 20; 40; 60; 80; 100 ]

let sweep ?(processor_counts = default_processor_counts) ?(trials = 100) ?(seed = 20130520)
    ?domains profile =
  let rng = Rng.create ~seed () in
  let point p =
    let het = Array.make trials 0. in
    let hom = Array.make trials 0. in
    let hom_over_k = Array.make trials 0. in
    let ks = Array.make trials 0. in
    (* Split the seed RNG sequentially so every trial owns an
       independent stream; the trial loop can then run on the domain
       pool with results identical to the sequential order. *)
    let rngs = Array.make trials rng in
    for t = 0 to trials - 1 do
      rngs.(t) <- Rng.split rng
    done;
    Numerics.Parallel.parallel_for ?domains trials (fun t ->
        Obs.Trace.begin_span "fig4.trial";
        let star = Platform.Profiles.generate rngs.(t) ~p profile in
        let r = Partition.Strategies.evaluate star in
        het.(t) <- r.Partition.Strategies.het;
        hom.(t) <- r.Partition.Strategies.hom;
        hom_over_k.(t) <- r.Partition.Strategies.hom_over_k;
        ks.(t) <- float_of_int r.Partition.Strategies.k;
        Obs.Trace.end_span "fig4.trial");
    {
      p;
      het = Stats.summarize het;
      hom = Stats.summarize hom;
      hom_over_k = Stats.summarize hom_over_k;
      mean_k = Stats.mean ks;
    }
  in
  List.map point processor_counts

let table ~title points =
  {
    Report.title;
    header =
      [ "p"; "Commhet/LB"; "Commhet sd"; "het 95% CI lo"; "het 95% CI hi"; "Commhom/LB";
        "Commhom sd"; "Commhom/k/LB"; "Commhom/k sd"; "mean k" ];
    rows =
      List.map
        (fun pt ->
          (* A single trial has no interval: its bounds are NaN. *)
          let lo, hi =
            if pt.het.Stats.n >= 2 then
              let i = Numerics.Confidence.of_summary pt.het in
              (i.Numerics.Confidence.lo, i.Numerics.Confidence.hi)
            else (Float.nan, Float.nan)
          in
          Report.
            [
              Int pt.p;
              Float (pt.het.Stats.mean, 4);
              Float (pt.het.Stats.stddev, 2);
              Float (lo, 4);
              Float (hi, 4);
              Float (pt.hom.Stats.mean, 4);
              Float (pt.hom.Stats.stddev, 2);
              Float (pt.hom_over_k.Stats.mean, 4);
              Float (pt.hom_over_k.Stats.stddev, 2);
              Float (pt.mean_k, 3);
            ])
        points;
  }

let chart points =
  let series label f =
    {
      Numerics.Ascii_chart.label;
      points = Array.of_list (List.map (fun pt -> (float_of_int pt.p, f pt)) points);
    }
  in
  Numerics.Ascii_chart.render ~height:12
    [
      series "Commhet" (fun pt -> pt.het.Stats.mean);
      series "Commhom" (fun pt -> pt.hom.Stats.mean);
      series "Commhom/k" (fun pt -> pt.hom_over_k.Stats.mean);
    ]
