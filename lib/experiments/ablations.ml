module Rng = Numerics.Rng
module Profiles = Platform.Profiles
module Star = Platform.Star
module Processor = Platform.Processor

type partitioner_row = {
  p : int;
  profile : string;
  dp_ratio : float;
  bisection_ratio : float;
}

type summa_row = { panel : int; words : int; messages : int }

type c25d_row = { p : int; c : int; per_processor : float; total : float; speedup : float }

type splitter_row = {
  n : int;
  p : int;
  sample_ratio : float;
  histogram_ratio : float;
  histogram_passes : int;
  psrs_ratio : float;
}

type speculation_row = {
  sigma : float;
  plain_makespan : float;
  speculative_makespan : float;
  duplicates : float;
}

type ordering_row = { p : int; spread : float; latency_scale : float }

type matmul_row = {
  algorithm : string;
  n : int;
  p : int;
  words : int;
  messages : int;
  correct : bool;
}

let partitioners ?(processor_counts = [ 10; 40; 100 ]) ?(trials = 20) ?(seed = 31) () =
  let rng = Rng.create ~seed () in
  let rows = ref [] in
  List.iter
    (fun profile ->
      List.iter
        (fun p ->
          let dp = Array.make trials 0. and bisection = Array.make trials 0. in
          for t = 0 to trials - 1 do
            let star = Profiles.generate (Rng.split rng) ~p profile in
            let areas = Star.relative_speeds star in
            let lb = Partition.Lower_bound.peri_sum ~areas in
            dp.(t) <-
              (Partition.Column_partition.peri_sum ~areas).Partition.Column_partition.cost
              /. lb;
            bisection.(t) <- Partition.Bisection.cost ~areas /. lb
          done;
          rows :=
            {
              p;
              profile = Profiles.name profile;
              dp_ratio = Numerics.Stats.mean dp;
              bisection_ratio = Numerics.Stats.mean bisection;
            }
            :: !rows)
        processor_counts)
    [ Profiles.paper_uniform; Profiles.paper_lognormal ];
  List.rev !rows

let summa_panels ?(n = 64) ?(panels = [ 1; 4; 16; 64 ]) () =
  let rng = Rng.create ~seed:32 () in
  let a = Linalg.Matrix.random rng ~rows:n ~cols:n in
  let b = Linalg.Matrix.random rng ~rows:n ~cols:n in
  (* A panel wider than the matrix is meaningless (and rejected by
     Summa.distributed): drop such entries so callers can shrink [n]
     without re-deriving the panel list. *)
  let panels = List.filter (fun panel -> panel <= n) panels in
  List.map
    (fun panel ->
      let stats = Linalg.Summa.distributed ~grid_rows:2 ~grid_cols:2 ~panel a b in
      { panel; words = stats.Linalg.Summa.words; messages = stats.Linalg.Summa.messages })
    panels

let c25d ?(n = 1024) ?(ps = [ 16; 64; 256 ]) () =
  List.concat_map
    (fun p ->
      let cs =
        List.filter
          (fun c ->
            match Linalg.C25d.evaluate ~p ~c ~n with
            | (_ : Linalg.C25d.model) -> true
            | exception Invalid_argument _ -> false)
          [ 1; 2; 4; 8 ]
      in
      List.map
        (fun c ->
          let model = Linalg.C25d.evaluate ~p ~c ~n in
          {
            p;
            c;
            per_processor = model.Linalg.C25d.per_processor;
            total = model.Linalg.C25d.total;
            speedup = Linalg.C25d.speedup_over_2d ~p ~c ~n;
          })
        cs)
    ps

let splitters ?(n = 100_000) ?(processor_counts = [ 8; 32 ]) ?(seed = 33) () =
  let rng = Rng.create ~seed () in
  List.map
    (fun p ->
      let keys = Array.init n (fun _ -> Rng.float rng) in
      let s = Sortlib.Sample_sort.default_oversampling ~n in
      let sample_splitters = Sortlib.Sample_sort.choose_splitters_floats rng keys ~p ~s in
      let sample_sizes = Kernels.Scatter.histogram_floats keys ~splitters:sample_splitters in
      let histogram = Sortlib.Histogram_sort.splitters ~tolerance:0.01 keys ~p in
      let psrs = Sortlib.Psrs.sort keys ~p in
      {
        n;
        p;
        sample_ratio = Sortlib.Sample_sort.max_bucket_ratio sample_sizes;
        histogram_ratio =
          Sortlib.Sample_sort.max_bucket_ratio histogram.Sortlib.Histogram_sort.bucket_sizes;
        histogram_passes = histogram.Sortlib.Histogram_sort.passes;
        psrs_ratio = Sortlib.Sample_sort.max_bucket_ratio psrs.Sortlib.Psrs.bucket_sizes;
      })
    processor_counts

let speculation ?(sigmas = [ 0.5; 1.; 1.5 ]) ?(trials = 20) ?(tasks = 32) ?(p = 4) () =
  let star = Star.of_speeds (List.init p (fun _ -> 1.)) in
  let task_set =
    Array.init tasks (fun i -> Mapreduce.Task.make ~id:i ~data_ids:[| i |] ~cost:10.)
  in
  List.map
    (fun sigma ->
      let span speculation seed =
        let outcome =
          Mapreduce.Scheduler.run
            ~config:{ Mapreduce.Scheduler.default_config with speculation }
            ~jitter:(Rng.create ~seed (), sigma)
            star ~tasks:task_set
            ~block_size:(fun _ -> 0.1)
        in
        (outcome.Mapreduce.Scheduler.makespan, outcome.Mapreduce.Scheduler.duplicates)
      in
      let totals speculation =
        let spans = ref 0. and dups = ref 0 in
        for seed = 1 to trials do
          let s, d = span speculation (1000 + seed) in
          spans := !spans +. s;
          dups := !dups + d
        done;
        (!spans /. float_of_int trials, float_of_int !dups /. float_of_int trials)
      in
      let plain, _ = totals Mapreduce.Scheduler.Off in
      let speculative, duplicates = totals Mapreduce.Scheduler.At_idle in
      { sigma; plain_makespan = plain; speculative_makespan = speculative; duplicates })
    sigmas

let ordering ?(p = 6) ?(latency_scales = [ 0.; 0.5; 2.; 8. ]) ?(seed = 34) () =
  let rng = Rng.create ~seed () in
  List.map
    (fun latency_scale ->
      let procs =
        List.init p (fun i ->
            Processor.make ~id:(i + 1)
              ~speed:(Rng.uniform rng 1. 10.)
              ~latency:(latency_scale *. Rng.float rng)
              ())
      in
      let star = Star.create procs in
      { p; spread = Dlt.Ordering.order_spread star ~total:100.; latency_scale })
    latency_scales

let matmul_algorithms ?(n = 48) ?(grid = 4) () =
  let rng = Rng.create ~seed:35 () in
  let a = Linalg.Matrix.random rng ~rows:n ~cols:n in
  let b = Linalg.Matrix.random rng ~rows:n ~cols:n in
  let reference = Linalg.Matrix.mul a b in
  let p = grid * grid in
  let rank1 =
    let zones = Linalg.Zone.uniform_grid ~p ~n in
    let stats = Linalg.Matmul.distributed ~zones a b in
    {
      algorithm = "rank-1 zones";
      n;
      p;
      words = stats.Linalg.Matmul.total;
      messages = 2 * p * n;
      correct = Linalg.Matrix.approx_equal stats.Linalg.Matmul.result reference;
    }
  in
  let summa panel =
    let stats = Linalg.Summa.distributed ~grid_rows:grid ~grid_cols:grid ~panel a b in
    {
      algorithm = Printf.sprintf "SUMMA (panel %d)" panel;
      n;
      p;
      words = stats.Linalg.Summa.words;
      messages = stats.Linalg.Summa.messages;
      correct = Linalg.Matrix.approx_equal stats.Linalg.Summa.result reference;
    }
  in
  let cannon =
    let stats = Linalg.Cannon.distributed ~grid a b in
    {
      algorithm = "Cannon";
      n;
      p;
      words = stats.Linalg.Cannon.words;
      messages = stats.Linalg.Cannon.messages;
      correct = Linalg.Matrix.approx_equal stats.Linalg.Cannon.result reference;
    }
  in
  [ rank1; summa 1; summa (n / grid); cannon ]

type topology_row = { uplink : float; loss : float; tree_vs_flat : float }

let topology ?(uplinks = [ 16.; 4.; 1.; 0.25 ]) ?(total = 200.) () =
  List.map
    (fun uplink ->
      let cluster () =
        (* Fast internal fabric (bw 8) so the uplink is the variable
           under study, not the gateway's own port. *)
        Platform.Topology.cluster ~bandwidth:uplink
          (List.init 8 (fun _ -> Platform.Topology.worker ~bandwidth:8. ~speed:1. ()))
      in
      let nodes =
        [
          cluster ();
          cluster ();
          Platform.Topology.worker ~bandwidth:2. ~speed:2. ();
          Platform.Topology.worker ~bandwidth:2. ~speed:2. ();
        ]
      in
      let tree = Dlt.Tree.schedule nodes ~total in
      {
        uplink;
        loss = Platform.Topology.aggregation_loss nodes;
        tree_vs_flat = tree.Dlt.Tree.makespan /. Dlt.Tree.flat_makespan nodes ~total;
      })
    uplinks

(* --- printing --- *)

let print_partitioners rows =
  Report.section "Ablation: PERI-SUM column DP vs recursive bisection (ratio to LB)";
  let table =
    Numerics.Ascii_table.create ~headers:[ "profile"; "p"; "column DP"; "bisection" ]
  in
  List.iter
    (fun (r : partitioner_row) ->
      Numerics.Ascii_table.add_row table
        [
          r.profile;
          Report.int_cell r.p;
          Report.float_cell ~digits:5 r.dp_ratio;
          Report.float_cell ~digits:5 r.bisection_ratio;
        ])
    rows;
  Numerics.Ascii_table.print table

let print_summa rows =
  Report.section "Ablation: SUMMA panel width (n=64, 2x2 grid)";
  let table = Numerics.Ascii_table.create ~headers:[ "panel"; "words"; "messages" ] in
  List.iter
    (fun (r : summa_row) ->
      Numerics.Ascii_table.add_row table
        [ Report.int_cell r.panel; Report.int_cell r.words; Report.int_cell r.messages ])
    rows;
  Numerics.Ascii_table.print table

let print_c25d rows =
  Report.section "Ablation: 2.5D replication (communication model, n=1024)";
  let table =
    Numerics.Ascii_table.create
      ~headers:[ "p"; "c"; "words/proc"; "total words"; "speedup vs 2D" ]
  in
  List.iter
    (fun (r : c25d_row) ->
      Numerics.Ascii_table.add_row table
        [
          Report.int_cell r.p;
          Report.int_cell r.c;
          Report.float_cell ~digits:5 r.per_processor;
          Report.float_cell ~digits:5 r.total;
          Report.float_cell ~digits:4 r.speedup;
        ])
    rows;
  Numerics.Ascii_table.print table

let print_splitters rows =
  Report.section "Ablation: sample-sort vs histogram-sort splitters (max bucket / ideal)";
  let table =
    Numerics.Ascii_table.create
      ~headers:[ "N"; "p"; "sample sort"; "histogram"; "histogram passes"; "PSRS" ]
  in
  List.iter
    (fun (r : splitter_row) ->
      Numerics.Ascii_table.add_row table
        [
          Report.int_cell r.n;
          Report.int_cell r.p;
          Report.float_cell ~digits:5 r.sample_ratio;
          Report.float_cell ~digits:5 r.histogram_ratio;
          Report.int_cell r.histogram_passes;
          Report.float_cell ~digits:5 r.psrs_ratio;
        ])
    rows;
  Numerics.Ascii_table.print table

let print_speculation rows =
  Report.section "Ablation: speculative re-execution under straggler jitter";
  let table =
    Numerics.Ascii_table.create
      ~headers:[ "sigma"; "makespan plain"; "makespan spec"; "mean duplicates" ]
  in
  List.iter
    (fun (r : speculation_row) ->
      Numerics.Ascii_table.add_row table
        [
          Report.float_cell r.sigma;
          Report.float_cell ~digits:5 r.plain_makespan;
          Report.float_cell ~digits:5 r.speculative_makespan;
          Report.float_cell ~digits:3 r.duplicates;
        ])
    rows;
  Numerics.Ascii_table.print table

let print_ordering rows =
  Report.section "Ablation: dispatch-order sensitivity of affine one-port DLT";
  let table =
    Numerics.Ascii_table.create ~headers:[ "p"; "latency scale"; "worst/best - 1" ]
  in
  List.iter
    (fun (r : ordering_row) ->
      Numerics.Ascii_table.add_row table
        [
          Report.int_cell r.p;
          Report.float_cell r.latency_scale;
          Report.float_cell ~digits:5 r.spread;
        ])
    rows;
  Numerics.Ascii_table.print table

let print_matmul rows =
  Report.section "Ablation: distributed matmul algorithms (same grid)";
  let table =
    Numerics.Ascii_table.create
      ~headers:[ "algorithm"; "n"; "p"; "words"; "messages"; "correct" ]
  in
  List.iter
    (fun (r : matmul_row) ->
      Numerics.Ascii_table.add_row table
        [
          r.algorithm;
          Report.int_cell r.n;
          Report.int_cell r.p;
          Report.int_cell r.words;
          Report.int_cell r.messages;
          string_of_bool r.correct;
        ])
    rows;
  Numerics.Ascii_table.print table

let print_topology rows =
  Report.section "Ablation: hierarchy — cluster uplink vs stranded compute (2x8+2 workers)";
  let table =
    Numerics.Ascii_table.create
      ~headers:[ "uplink bw"; "aggregation loss"; "tree/flat makespan" ]
  in
  List.iter
    (fun (r : topology_row) ->
      Numerics.Ascii_table.add_row table
        [
          Report.float_cell r.uplink;
          Report.float_cell ~digits:4 r.loss;
          Report.float_cell ~digits:4 r.tree_vs_flat;
        ])
    rows;
  Numerics.Ascii_table.print table

let print_all () =
  print_partitioners (partitioners ());
  print_summa (summa_panels ());
  print_c25d (c25d ());
  print_splitters (splitters ());
  print_speculation (speculation ());
  print_ordering (ordering ());
  print_matmul (matmul_algorithms ());
  print_topology (topology ())
