open Cmdliner

let fig4 =
  let run profile trials seed processors () =
    let points = Fig4.sweep ~processor_counts:processors ~trials ~seed profile in
    print_string (Fig4.chart points);
    [
      Fig4.table
        ~title:
          (Printf.sprintf "Figure 4 reproduction, %s speeds (%d trials/point)"
             (Platform.Profiles.name profile) trials)
        points;
    ]
  in
  Registry.entry ~name:"fig4"
    ~synopsis:"Reproduce the Figure 4 communication-ratio sweep."
    Term.(
      const run $ Registry.profile
      $ Registry.trials ()
      $ Registry.seed
      $ Registry.processor_counts ~default:Fig4.default_processor_counts)

let nonlinear =
  let alphas =
    Arg.(
      value & opt (list float) [ 1.5; 2.; 3. ]
      & info [ "alpha" ] ~docv:"A,..." ~doc:"Cost exponents.")
  in
  let run alphas processors () =
    [ Nonlinear_exp.table (Nonlinear_exp.run ~alphas ~processor_counts:processors ()) ]
  in
  Registry.entry ~name:"nonlinear"
    ~synopsis:"E1: the no-free-lunch fraction for N^alpha loads."
    Term.(
      const run $ alphas $ Registry.processor_counts ~default:[ 2; 4; 16; 64; 256 ])

let sort =
  let sizes =
    Arg.(
      value
      & opt (list int) [ 10_000; 100_000; 1_000_000 ]
      & info [ "n" ] ~docv:"N,..." ~doc:"Input sizes.")
  in
  let run sizes processors () =
    [
      Sorting_exp.table (Sorting_exp.run ~sizes ~processor_counts:processors ());
      Sorting_exp.hetero_table (Sorting_exp.run_hetero ~processor_counts:processors ());
    ]
  in
  Registry.entry ~name:"sort" ~synopsis:"E2: sorting as an almost-divisible load."
    Term.(const run $ sizes $ Registry.processor_counts ~default:[ 4; 16; 64 ])

let ratio =
  let factors =
    Arg.(
      value
      & opt (list float) [ 1.; 4.; 9.; 16.; 25.; 49.; 100. ]
      & info [ "k" ] ~docv:"K,..." ~doc:"Fast/slow speed factors.")
  in
  let p = Arg.(value & opt int 20 & info [ "p" ] ~docv:"P" ~doc:"Platform size.") in
  let run factors p () =
    [
      Ratio_exp.bimodal_table (Ratio_exp.run_bimodal ~p ~factors ());
      Ratio_exp.general_table (Ratio_exp.run_general ());
    ]
  in
  Registry.entry ~name:"ratio" ~synopsis:"E3: the Commhom/Commhet ratio bounds."
    Term.(const run $ factors $ p)

let partition =
  let speeds =
    Arg.(
      value
      & opt (list float) [ 1.; 1.; 2.; 4.; 4.; 12. ]
      & info [ "speeds" ] ~docv:"S,..." ~doc:"Worker speeds.")
  in
  let platform_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "platform" ] ~docv:"FILE"
          ~doc:"Read the platform from $(docv) (one worker per line: speed [bandwidth \
                [latency]]); overrides --speeds.")
  in
  let run platform_file speeds () =
    let star =
      match platform_file with
      | None -> Platform.Star.of_speeds speeds
      | Some path -> (
          match Platform.Parse.of_file path with
          | Ok star -> star
          | Error msg ->
              prerr_endline ("nldl: cannot read platform: " ^ msg);
              exit 1)
    in
    let layout = Partition.Strategies.het_layout star in
    print_string (Partition.Layout.render layout);
    let r = Partition.Strategies.evaluate star in
    [
      {
        Report.title = "PERI-SUM layout: half-perimeters and ratios to the lower bound";
        header = [ "sum half-perimeters"; "lower bound"; "het/LB"; "hom/LB"; "hom/k/LB"; "k" ];
        rows =
          [
            Report.
              [
                Float (Partition.Layout.sum_half_perimeters layout, 6);
                Float
                  (Partition.Lower_bound.peri_sum ~areas:(Platform.Star.relative_speeds star), 6);
                Float (r.Partition.Strategies.het, 6);
                Float (r.Partition.Strategies.hom, 6);
                Float (r.Partition.Strategies.hom_over_k, 6);
                Int r.Partition.Strategies.k;
              ];
          ];
      };
    ]
  in
  Registry.entry ~name:"partition"
    ~synopsis:"Partition a platform's outer-product domain (PERI-SUM)."
    Term.(const run $ platform_file $ speeds)

let mapreduce =
  let n = Arg.(value & opt int 512 & info [ "n" ] ~docv:"N" ~doc:"Vector size.") in
  let run n () =
    [ Mapreduce_exp.table (Mapreduce_exp.run ~n ()) ]
  in
  Registry.entry ~name:"mapreduce"
    ~synopsis:"Affinity-aware MapReduce scheduling ablation."
    Term.(const run $ n)

let time =
  let run profile trials () =
    [ Time_exp.table ~profile:(Platform.Profiles.name profile) (Time_exp.run ~trials profile) ]
  in
  Registry.entry ~name:"time"
    ~synopsis:"E4: strategy makespans (not just volumes) as the network slows down."
    Term.(const run $ Registry.profile $ Registry.trials ~default:10 ())

let ablations =
  let run () () = Ablations.all () in
  Registry.entry ~name:"ablations"
    ~synopsis:
      "Ablation studies: partitioner choice, SUMMA panels, 2.5D replication, splitter \
       selection, speculation, dispatch order."
    Term.(const run $ const ())

let faults =
  let tasks =
    Arg.(value & opt int 24 & info [ "tasks" ] ~docv:"N" ~doc:"Map tasks per trial.")
  in
  let p = Arg.(value & opt int 4 & info [ "p" ] ~docv:"P" ~doc:"Platform size.") in
  let crash_rates =
    Arg.(
      value
      & opt (list float) [ 0.; 0.3; 0.6 ]
      & info [ "crash-rates" ] ~docv:"R,..." ~doc:"Per-worker crash probabilities.")
  in
  let sigmas =
    Arg.(
      value & opt (list float) [ 0.; 0.8 ]
      & info [ "sigmas" ] ~docv:"S,..." ~doc:"Straggler-jitter sigmas.")
  in
  let fetch_failure =
    Arg.(
      value & opt float 0.05
      & info [ "fetch-failure" ] ~docv:"Q" ~doc:"Per-link fetch-failure probability.")
  in
  let run tasks p crash_rates sigmas fetch_failure trials seed domains () =
    let rows =
      Faults_exp.run ~tasks ~p ~crash_rates ~sigmas ~fetch_failure ~trials ~seed
        ?domains ()
    in
    [ Faults_exp.table rows ]
  in
  Registry.entry ~name:"faults"
    ~synopsis:
      "Robustness: makespan degradation under injected crashes, stragglers and fetch \
       failures."
    Term.(
      const run $ tasks $ p $ crash_rates $ sigmas $ fetch_failure
      $ Registry.trials ~default:5 ()
      $ Registry.seed $ Registry.domains)

let mrsim =
  let workers =
    Arg.(value & opt int 100_000 & info [ "workers" ] ~docv:"P" ~doc:"Worker count.")
  in
  let tasks =
    Arg.(value & opt int 1_000_000 & info [ "tasks" ] ~docv:"N" ~doc:"Map tasks.")
  in
  let crash_rate =
    Arg.(
      value & opt float 0.001
      & info [ "crash-rate" ] ~docv:"R" ~doc:"Per-worker crash probability.")
  in
  let slowdown_rate =
    Arg.(
      value & opt float 0.01
      & info [ "slowdown-rate" ] ~docv:"R" ~doc:"Per-worker slowdown probability.")
  in
  let fetch_failure =
    Arg.(
      value & opt float 0.01
      & info [ "fetch-failure" ] ~docv:"Q" ~doc:"Per-link fetch-failure probability.")
  in
  let horizon =
    Arg.(
      value & opt float 20.
      & info [ "horizon" ] ~docv:"T" ~doc:"Fault-plan horizon (simulated time).")
  in
  let timeline =
    Arg.(
      value
      & opt (some string) None
      & info [ "timeline" ] ~docv:"FILE"
          ~doc:
            "Write the simulated schedule as a (downsampled) Chrome trace-event \
             Gantt to $(docv).")
  in
  let timeline_events =
    Arg.(
      value & opt Registry.positive_int 20_000
      & info [ "timeline-events" ] ~docv:"N"
          ~doc:"Interval budget for --timeline (deterministic 1-in-k downsampling).")
  in
  let run workers tasks crash_rate slowdown_rate fetch_failure horizon timeline
      timeline_events seed () =
    let r, outcome =
      Mrsim_exp.run ~workers ~tasks ~crash_rate ~slowdown_rate ~fetch_failure ~horizon
        ~seed ()
    in
    (match timeline with
    | None -> ()
    | Some path ->
        Mapreduce.Timeline.write_chrome ~max_events:timeline_events outcome path;
        Printf.eprintf "Timeline written to %s\n%!" path);
    [ Mrsim_exp.table r ]
  in
  Registry.entry ~name:"mrsim"
    ~synopsis:
      "Million-scale fault-injected MapReduce simulation (single instrumented run)."
    Term.(
      const run $ workers $ tasks $ crash_rate $ slowdown_rate $ fetch_failure
      $ horizon $ timeline $ timeline_events $ Registry.seed)

(* --- the query plane: nldl serve / nldl query --------------------------- *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let serve =
  let cache =
    Arg.(
      value
      & opt Registry.positive_int Serve.Batch.default_config.Serve.Batch.cache_capacity
      & info [ "cache" ] ~docv:"N" ~doc:"Response-cache capacity (LRU entries).")
  in
  let queue_depth =
    Arg.(
      value
      & opt Registry.positive_int Serve.Batch.default_config.Serve.Batch.queue_depth
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:"Cache misses admitted per batch; overflow is rejected.")
  in
  let seconds =
    let parse s =
      match float_of_string_opt s with
      | Some d when d >= 0. && Float.is_finite d -> Ok d
      | _ ->
          Error (`Msg (Printf.sprintf "expected a non-negative number of seconds, got %S" s))
    in
    Arg.conv (parse, Format.pp_print_float)
  in
  let deadline =
    Arg.(
      value
      & opt (some seconds) None
      & info [ "deadline" ] ~docv:"S"
          ~doc:
            "Admission cut-off in seconds from the start of each batch: a cache \
             miss reached after it is answered with a $(b,deadline) error \
             instead of being solved.  It never interrupts a solve.")
  in
  let run socket cache_capacity queue_depth deadline_s domains () =
    let batch = { Serve.Batch.cache_capacity; queue_depth; deadline_s } in
    let socket_path =
      match socket with Some p -> p | None -> Serve.Daemon.default_socket_path ()
    in
    let pool =
      match domains with
      | Some d -> Exec.Pool.get_global ~at_least:d ()
      | None -> Exec.Pool.get_global ()
    in
    let engine =
      Serve.Daemon.run ~pool
        ~on_ready:(fun () -> Printf.printf "nldl serve: listening on %s\n%!" socket_path)
        { Serve.Daemon.socket_path; batch }
    in
    [
      {
        Report.title = "nldl serve: daemon statistics";
        header = [ "stat"; "value" ];
        rows =
          Report.
            [
              [ Text "requests"; Int (Serve.Batch.requests engine) ];
              [ Text "cache_hits"; Int (Serve.Batch.hits engine) ];
              [ Text "cache_misses"; Int (Serve.Batch.misses engine) ];
              [ Text "cache_evictions"; Int (Serve.Batch.evictions engine) ];
            ];
      };
    ]
  in
  Registry.entry ~name:"serve"
    ~synopsis:
      "Run the batched scheduling daemon: one JSON request per line over a Unix \
       socket, canonical Api.Response lines back, repeats answered from a \
       bounded LRU."
    Term.(
      const run $ socket_arg $ cache $ queue_depth $ deadline $ Registry.domains)

let query =
  let inline =
    Arg.(
      value
      & opt (some string) None
      & info [ "inline" ] ~docv:"JSON"
          ~doc:"Evaluate one request line and print the response line.")
  in
  let file =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Read one request per line from $(docv) (\"-\" = stdin).")
  in
  let read_lines = function
    | "-" -> In_channel.input_lines In_channel.stdin
    | path -> In_channel.with_open_text path In_channel.input_lines
  in
  let run inline socket file () =
    let lines =
      match (inline, file) with
      | Some line, None -> Some [ line ]
      | None, Some path -> Some (read_lines path)
      | Some _, Some _ ->
          prerr_endline "nldl query: give --inline or a FILE, not both";
          None
      | None, None ->
          prerr_endline "nldl query: nothing to do; give --inline JSON or a FILE";
          None
    in
    match (lines, socket) with
    | None, _ -> ([], 2)
    | Some lines, None ->
        List.iter (fun l -> print_endline (Api.Response.to_line (Api.Eval.eval_line l))) lines;
        ([], 0)
    | Some lines, Some path -> (
        match Serve.Client.connect_unix path with
        | exception Unix.Unix_error (e, _, _) ->
            Printf.eprintf "nldl query: cannot connect to %s: %s\n%!" path
              (Unix.error_message e);
            ([], 2)
        | c ->
            Fun.protect
              ~finally:(fun () -> Serve.Client.close c)
              (fun () ->
                List.iter (fun l -> print_endline (Serve.Client.request c l)) lines);
            ([], 0))
  in
  Registry.gated ~name:"query"
    ~synopsis:
      "Answer scheduling queries (one JSON request per line) in-process, or \
       forward them to a running daemon with --socket."
    Term.(const run $ inline $ socket_arg $ file)

let all =
  [
    fig4; nonlinear; sort; ratio; partition; mapreduce; time; ablations; faults; mrsim;
    serve; query;
  ]
