(* nldl — command-line driver for the paper-reproduction experiments.

   The subcommand group is built by folding over
   [Experiments.Catalog.all]: each experiment registers itself there as
   an [Experiments.Registry.entry] (name, synopsis, argument term), and
   [Registry.to_cmd] uniformly equips it with logging (-v), tracing
   (--trace/--metrics) and table dumps (--csv/--json).  Adding a
   subcommand means adding a catalog entry — this file does not
   change. *)

open Cmdliner

(* The one non-experiment subcommand: the static invariant checker,
   registered through the same Registry plumbing so it gets -v,
   --trace/--metrics and --csv/--json for free.  Its exit status is the
   gate result, so `nldl lint` can serve as a CI step directly. *)
let lint_entry =
  let run thunk () =
    let o : Lint.Cmd.outcome = thunk () in
    (* The rich findings JSON (counts, per-finding "new" flags) stays on
       Lint.Cmd's own flag; the Registry --json surface gets the findings
       table in the standard Api.Response envelope like every command. *)
    ( Some (Experiments.Registry.table ~header:o.Lint.Cmd.header ~rows:o.Lint.Cmd.rows),
      o.Lint.Cmd.status )
  in
  Experiments.Registry.gated ~name:"lint"
    ~synopsis:
      "Statically check the tree's determinism, unsafe-zone and domain-safety \
       invariants."
    Term.(const run $ Lint.Cmd.embedded_term)

(* nldl profile EXPERIMENT [--out FILE] [--trace-events N] [-- ARG...]:
   look the experiment up in the catalog, re-evaluate its own argument
   term on the passthrough args (everything after --), run the thunk
   with the full observability stack force-enabled from a clean slate,
   and write a self-contained report: metrics snapshot (counters,
   gauges), log2-histogram summaries with quantiles, and a bounded
   trace with explicit dropped/sampled accounting. *)
let profile_entry =
  let exp_name =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"EXPERIMENT" ~doc:"Catalog experiment to profile.")
  in
  let passthrough =
    Arg.(
      value & pos_right 0 string []
      & info [] ~docv:"ARG"
          ~doc:"Arguments for the experiment itself; separate with --.")
  in
  let out =
    Arg.(
      value & opt string "profile.json"
      & info [ "out" ] ~docv:"FILE" ~doc:"Where to write the profile report.")
  in
  let trace_events =
    Arg.(
      value & opt Experiments.Registry.positive_int 10_000
      & info [ "trace-events" ] ~docv:"N"
          ~doc:
            "Event budget for the embedded trace (deterministic 1-in-k sampling \
             above it).")
  in
  let catalog_names () =
    String.concat ", "
      (List.map (fun (e : Experiments.Registry.entry) -> e.name) Experiments.Catalog.all)
  in
  let hist_summary_output () =
    let header = [ "hist"; "count"; "mean"; "p50"; "p90"; "p99"; "max" ] in
    let rows =
      List.filter_map
        (fun (s : Obs.Hist.summary) ->
          if s.Obs.Hist.count = 0 then None
          else
            Some
              [
                s.Obs.Hist.s_name;
                string_of_int s.Obs.Hist.count;
                Printf.sprintf "%.4g" (Obs.Hist.mean s);
                string_of_int (Obs.Hist.quantile s 0.5);
                string_of_int (Obs.Hist.quantile s 0.9);
                string_of_int (Obs.Hist.quantile s 0.99);
                string_of_int s.Obs.Hist.max_v;
              ])
        (Obs.Hist.snapshot ())
    in
    Experiments.Registry.table ~header ~rows
  in
  let run name args out trace_events () =
    match
      List.find_opt
        (fun (e : Experiments.Registry.entry) -> e.name = name)
        Experiments.Catalog.all
    with
    | None ->
        Printf.eprintf "nldl profile: unknown experiment %S (catalog: %s)\n%!" name
          (catalog_names ());
        (None, 2)
    | Some e -> (
        let inner = Cmd.v (Cmd.info name) e.term in
        match Cmd.eval_value ~argv:(Array.of_list (name :: args)) inner with
        | Error _ ->
            Printf.eprintf "nldl profile: bad arguments for %s: %s\n%!" name
              (String.concat " " args);
            (None, 2)
        | Ok (`Help | `Version) -> (None, 0)
        | Ok (`Ok thunk) ->
            let prev_m = Obs.Metrics.enabled () in
            let prev_h = Obs.Hist.enabled () in
            let prev_t = Obs.Trace.enabled () in
            Obs.Metrics.reset ();
            Obs.Hist.reset ();
            Obs.Trace.clear ();
            Obs.Metrics.set_enabled true;
            Obs.Hist.set_enabled true;
            Obs.Trace.set_enabled true;
            let t0 = Obs.Clock.now_ns () in
            let table, status = thunk () in
            let elapsed = Obs.Clock.ns_to_s (Obs.Clock.now_ns () - t0) in
            Obs.Metrics.set_enabled prev_m;
            Obs.Hist.set_enabled prev_h;
            Obs.Trace.set_enabled prev_t;
            let report =
              Obs.Json.Obj
                [
                  ("experiment", Obs.Json.String name);
                  ("argv", Obs.Json.List (List.map (fun a -> Obs.Json.String a) args));
                  ("elapsed_s", Obs.Json.Float elapsed);
                  ("metrics", Obs.Export.metrics_json ());
                  ("trace", Obs.Export.trace_json ~max_events:trace_events ());
                ]
            in
            Obs.Json.write_file out report;
            Printf.eprintf "Profile written to %s\n%!" out;
            let summary = hist_summary_output () in
            List.iter
              (fun row -> print_endline (String.concat "  " row))
              (summary.Experiments.Registry.header :: summary.Experiments.Registry.rows);
            ignore (table : Experiments.Registry.output option);
            (Some summary, status))
  in
  Experiments.Registry.gated ~name:"profile"
    ~synopsis:
      "Run a catalog experiment fully instrumented and emit a self-contained \
       profile report (metrics + quantiles + bounded trace)."
    Term.(const run $ exp_name $ passthrough $ out $ trace_events)

let version = "1.0.0"

let command =
  let doc = "Non-Linear Divisible Loads: There is No Free Lunch — reproduction toolkit" in
  Cmd.group
    (Cmd.info "nldl" ~version ~doc)
    (List.map Experiments.Registry.to_cmd
       (Experiments.Catalog.all @ [ lint_entry; profile_entry ]))

let run () = Cmd.eval' command

let eval_value ~argv = Cmd.eval_value ~argv command

(* The documented programmatic entry for tests: evaluate an argument
   list in-process with stdout captured to a temp file, so test_cli and
   the serve byte-identity tests never shell out or hand-build argv
   arrays with dup2 plumbing of their own. *)

type capture = { status : int; out : string }

let eval_for_test args =
  let argv = Array.of_list ("nldl" :: args) in
  let tmp = Filename.temp_file "nldl-cli" ".out" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stdout in
  flush stdout;
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  let result =
    Fun.protect
      ~finally:(fun () ->
        flush stdout;
        Unix.dup2 saved Unix.stdout;
        Unix.close saved)
      (fun () -> eval_value ~argv)
  in
  let out = In_channel.with_open_bin tmp In_channel.input_all in
  Sys.remove tmp;
  match result with
  | Ok (`Ok status) -> Ok { status; out }
  | Ok (`Help | `Version) -> Ok { status = 0; out }
  | Error `Parse -> Error `Parse
  | Error `Term -> Error `Term
  | Error `Exn -> Error `Exn
