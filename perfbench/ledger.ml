(* The repository benchmark: one workload per run, end-to-end metrics
   untraced, or the traced per-layer ledger with [--trace 1].  The last
   line of standard output is the result object. *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  nldl : string;  (** the daemon binary under test *)
  corrupt : bool;  (** spoil one expected answer (self-test) *)
  setup_only : bool;  (** time one set-up, print it and exit *)
  provenance : (string * Obs.Json.t) list;
}

(* mrsim_faults is traced ([Layers]) but has no end-to-end workload:
   its run-to-run spread on a shared host (see README.md) exceeds any
   bound the benchmark could hold it to. *)
let workloads = [ "serve_hot"; "serve_cold"; "sort_multicore" ]
let now_ns = Obs.Clock.now_ns
let deadline seconds = now_ns () + int_of_float (seconds *. 1e9)
let self_rss () = Daemon.peak_rss_mb (Unix.getpid ())

(* A tail percentile needs 11 samples; every timed phase earns them. *)
let min_samples = 11

(* Set-up runs [setup_reps] times per run and [setup_s] is the median.
   Each set-up runs in a fresh process, so each one pays the cold
   costs: pool spawn, the slow first calls, a new daemon.  The first
   [setup_reps - 1] are this executable started again with
   [--setup-only], which prints its set-up time; the last is the run's
   own.  [dispose] releases a set-up in a [--setup-only] process. *)
let setup_reps = 7

let child_setup_s o =
  let args =
    [| Sys.executable_name; "--workload"; o.workload; "--seed"; string_of_int o.seed; "--nldl"; o.nldl; "--setup-only" |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let out = In_channel.input_all ic in
  match (Unix.close_process_in ic, float_of_string_opt (String.trim out)) with
  | Unix.WEXITED 0, Some s -> s
  | _ -> failwith ("--setup-only process failed: " ^ String.trim out)

let repeated o ~setup ~dispose =
  let timed () = Obs.Clock.elapsed_s setup in
  if o.setup_only then begin
    let x, s = timed () in
    dispose x;
    Printf.printf "%.17g\n%!" s;
    exit 0
  end;
  let others = List.init (setup_reps - 1) (fun _ -> child_setup_s o) in
  let x, s = timed () in
  (x, Stat.median_list (s :: others))

let daemon_dirs = ref 0

let daemon_dir () =
  incr daemon_dirs;
  Printf.sprintf ".bench_run/%d-%d" (Unix.getpid ()) !daemon_dirs

(* Outcome of one untraced run. *)
type run = {
  op : string;  (** what one operation is, e.g. "queries" *)
  ops_per_s : float;
  latency_ns : Stat.samples;
  setup_s : float;
  rss_mb : float;
  attempted : int;
  failed : int;
}

let end_to_end r =
  let n = Stat.count r.latency_ns in
  let tail, pct, windows =
    match Stat.tail r.latency_ns with
    | Some t -> t
    | None -> failwith "fewer than 11 samples: no tail percentile"
  in
  [
    Stat.metric "throughput" "1/s" r.ops_per_s ~note:(Printf.sprintf "%s/s" r.op);
    Stat.metric "p50_ms" "ms" (Stat.ns_to_ms (Stat.median r.latency_ns))
      ~note:(Printf.sprintf "median of %d" n);
    Stat.metric "tail_ms" "ms" (Stat.ns_to_ms tail)
      ~note:
        (if windows = 1 then Printf.sprintf "p%.3g of %d" pct n
         else Printf.sprintf "median over %d windows of %d of each window's p%.3g" windows Stat.window pct);
    Stat.metric "setup_s" "s" r.setup_s ~note:(Printf.sprintf "median of %d set-ups, each in a fresh process" setup_reps);
    Stat.metric "peak_rss_mb" "MB" r.rss_mb ~note:"VmHWM of the process under test";
    Stat.metric "success_rate" "ratio"
      (1. -. (float_of_int r.failed /. float_of_int r.attempted))
      ~note:(Printf.sprintf "%d failed of %d" r.failed r.attempted);
  ]

(* --- in-process workloads: a timed loop of checked calls -------------- *)

let timed_calls ~seconds ~call ~check =
  let lat = Stat.samples () in
  let failed = ref 0 in
  let until = deadline seconds in
  while now_ns () < until || Stat.count lat < min_samples do
    let t0 = now_ns () in
    let out = call () in
    Stat.add lat (float_of_int (now_ns () - t0));
    if not (check out) then incr failed
  done;
  (lat, !failed)

let sort_multicore o =
  let t, setup_s = repeated o ~setup:(fun () -> Sort_bench.setup ~seed:o.seed) ~dispose:ignore in
  let lat, failed =
    timed_calls ~seconds:o.seconds
      ~call:(fun () -> Sort_bench.call t)
      ~check:(Sort_bench.correct ~corrupt:o.corrupt t)
  in
  let calls = Stat.count lat in
  {
    op = "keys";
    ops_per_s = float_of_int (Sort_bench.n * calls) /. (Stat.sum lat /. 1e9);
    latency_ns = lat;
    setup_s;
    rss_mb = self_rss ();
    attempted = calls;
    failed;
  }

(* --- serve workloads --------------------------------------------------- *)

let serve_run (b : Serve_bench.block) ~setup_s ~rss_mb =
  {
    op = "queries";
    ops_per_s = float_of_int (Serve_bench.replies b) /. b.wall_s;
    latency_ns = b.rtt_ns;
    setup_s;
    rss_mb;
    attempted = Serve_bench.attempted b;
    failed = b.failed;
  }

let serve_hot o =
  let h, setup_s =
    repeated o
      ~setup:(fun () -> Serve_bench.setup_hot ~nldl:o.nldl ~dir:(daemon_dir ()) ~traced:false ~seed:o.seed)
      ~dispose:(fun h -> ignore (Daemon.stop h.Serve_bench.daemon))
  in
  let expected = Serve_bench.hot_expected ~corrupt:o.corrupt h in
  let b = Serve_bench.run_hot h ~expected ~until_ns:(deadline o.seconds) in
  let rss_mb = Daemon.peak_rss_mb h.daemon.pid in
  ignore (Daemon.stop h.daemon);
  serve_run b ~setup_s ~rss_mb

let serve_cold o =
  let c, setup_s =
    repeated o
      ~setup:(fun () -> Serve_bench.setup_cold ~nldl:o.nldl ~dir:(daemon_dir ()) ~traced:false ~seed:o.seed)
      ~dispose:(fun c -> ignore (Daemon.stop c.Serve_bench.cdaemon))
  in
  let b, log = Serve_bench.run_cold c ~until_ns:(deadline o.seconds) in
  let rss_mb = Daemon.peak_rss_mb c.cdaemon.pid in
  ignore (Daemon.stop c.cdaemon);
  Serve_bench.check_cold ~corrupt:o.corrupt b log;
  serve_run b ~setup_s ~rss_mb

(* --- output ------------------------------------------------------------ *)

let print_result ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (m : Stat.metric) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (Stat.number m.value) m.unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed (String.concat ", " fields)

let print_provenance o extra =
  let j = Obs.Json.Obj (o.provenance @ [ ("workload", Obs.Json.String o.workload); ("seed", Obs.Json.Int o.seed) ] @ extra) in
  Printf.printf "provenance %s\n%!" (Obs.Json.to_compact j)

let untraced o =
  let r =
    match o.workload with
    | "serve_hot" -> serve_hot o
    | "serve_cold" -> serve_cold o
    | "sort_multicore" -> sort_multicore o
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  let metrics = end_to_end r in
  Stat.print_table (Printf.sprintf "%s end to end (%s, %s)" o.workload r.op "untraced") metrics;
  print_provenance o [ ("samples", Obs.Json.Int (Stat.count r.latency_ns)) ];
  print_result ~attempted:r.attempted ~failed:r.failed metrics

(* The per-layer ledger covers every workload whichever one is named, so
   each traced run prints every per-layer metric. *)
let traced o =
  let metrics, attempted, failed =
    Layers.run ~nldl:o.nldl ~dir:daemon_dir ~seed:o.seed ~seconds:o.seconds ~corrupt:o.corrupt
  in
  print_provenance o [];
  print_result ~attempted ~failed metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let nldl = ref "" and corrupt = ref false and rev = ref "unknown" and setup_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer ledger");
      ("--nldl", Arg.Set_string nldl, "PATH nldl binary to serve from");
      ("--corrupt", Arg.Set corrupt, " spoil one expected answer (self-test)");
      ("--rev", Arg.Set_string rev, "REV source revision, for provenance");
      ("--setup-only", Arg.Set setup_only, " time one set-up, print its seconds and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "ledger --workload W --seed N --seconds S --trace 0|1 --nldl PATH";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("ledger: --workload must be one of " ^ String.concat ", " workloads);
    exit 2
  end;
  if !nldl = "" || not (Sys.file_exists !nldl) then begin
    prerr_endline "ledger: --nldl must name the built nldl binary";
    exit 2
  end;
  (* A daemon that drops a connection must surface as EPIPE on the
     write, counted as a lost query, not kill the run. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if not (Sys.file_exists ".bench_run") then Unix.mkdir ".bench_run" 0o700;
  let o =
    {
      workload = !workload;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      nldl = !nldl;
      corrupt = !corrupt;
      setup_only = !setup_only;
      provenance =
        [
          ("rev", Obs.Json.String !rev);
          ("nproc", Obs.Json.Int (Domain.recommended_domain_count ()));
          ("ocaml", Obs.Json.String Sys.ocaml_version);
          ("profile", Obs.Json.String "release");
        ];
    }
  in
  try if o.trace then traced o else untraced o
  with e ->
    Daemon.kill_all ();
    Printf.eprintf "ledger: %s run aborted: %s\n%!" o.workload (Printexc.to_string e);
    exit 1
