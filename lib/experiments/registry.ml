open Cmdliner

type output = { header : string list; rows : string list list }

type entry = {
  name : string;
  synopsis : string;
  term : (unit -> output option * int) Term.t;
}

(* Generic JSON view of a string table: numeric-looking cells become
   numbers so downstream tools see typed values. *)
let json_cell s =
  match int_of_string_opt s with
  | Some i -> Obs.Json.Int i
  | None -> (
      match float_of_string_opt s with
      | Some f -> Obs.Json.Float f
      | None -> Obs.Json.String s)

let json_of_table header rows =
  Obs.Json.List
    (List.map
       (fun row -> Obs.Json.Obj (List.map2 (fun k v -> (k, json_cell v)) header row))
       rows)

let table ~header ~rows = { header; rows }

let entry ~name ~synopsis term =
  { name; synopsis; term = Term.(const (fun f () -> (f (), 0)) $ term) }

let gated ~name ~synopsis term = { name; synopsis; term }

(* --- shared argument terms --- *)

let profile_conv =
  let parse s =
    match Platform.Profiles.of_name s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown profile %S" s))
  in
  let print ppf p = Format.pp_print_string ppf (Platform.Profiles.name p) in
  Arg.conv (parse, print)

let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let profile =
  Arg.(
    value
    & opt profile_conv Platform.Profiles.paper_uniform
    & info [ "profile" ] ~docv:"PROFILE"
        ~doc:"Speed profile: homogeneous, uniform, lognormal or bimodal.")

let trials ?(default = 100) () =
  Arg.(
    value & opt positive_int default
    & info [ "trials" ] ~docv:"T" ~doc:"Repetitions per data point.")

let seed =
  Arg.(value & opt int 20130520 & info [ "seed" ] ~docv:"S" ~doc:"PRNG seed.")

let processor_counts ~default =
  Arg.(
    value & opt (list int) default
    & info [ "p" ] ~docv:"P,..." ~doc:"Processor counts to sweep.")

let domains =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"D" ~doc:"Domain-pool size for parallel trial loops.")

(* --- per-command plumbing: logging, observability, table dumps --- *)

(* The format reporter writes to one formatter shared by every domain;
   experiments log from pool workers, so reports are serialized or
   concurrent writers corrupt the formatter's queue. *)
let log_mutex = Mutex.create ()

let setup_logs verbosity =
  let level =
    match verbosity with 0 -> Some Logs.Warning | 1 -> Some Logs.Info | _ -> Some Logs.Debug
  in
  Logs.set_level level;
  Logs.set_reporter_mutex
    ~lock:(fun () -> Mutex.lock log_mutex)
    ~unlock:(fun () -> Mutex.unlock log_mutex);
  Logs.set_reporter (Logs.format_reporter ())

let verbosity =
  Arg.(value & flag_all & info [ "v"; "verbose" ] ~doc:"Increase log verbosity (repeatable).")

let logs_term = Term.(const setup_logs $ (const List.length $ verbosity))

let trace_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Record runtime spans and write a Chrome trace-event JSON to $(docv).")

let metrics_file =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Collect runtime metrics; write the snapshot to $(docv) (\"-\" = stdout).")

let setup_obs trace metrics =
  if trace <> None then Obs.Trace.set_enabled true;
  if metrics <> None then begin
    Obs.Metrics.set_enabled true;
    Obs.Hist.set_enabled true
  end;
  (trace, metrics)

let obs_term = Term.(const setup_obs $ trace_file $ metrics_file)

let finish_obs (trace, metrics) =
  (match trace with
  | None -> ()
  | Some path ->
      Obs.Trace.set_enabled false;
      Obs.Export.write_trace path;
      let dropped = Obs.Trace.dropped () in
      if dropped > 0 then
        Printf.eprintf "nldl: trace ring buffers dropped %d events\n%!" dropped;
      Printf.eprintf "Trace written to %s\n%!" path);
  match metrics with
  | None -> ()
  | Some "-" -> print_endline (Obs.Json.to_string (Obs.Export.metrics_json ()))
  | Some path ->
      Obs.Export.write_metrics path;
      Printf.eprintf "Metrics written to %s\n%!" path

let csv_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the series as CSV to $(docv).")

let json_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"Also write the series as JSON to $(docv).")

let dump name out csv json =
  let missing flag =
    Printf.eprintf "nldl %s: --%s requested but this command returns no table\n%!" name
      flag
  in
  (match (csv, out) with
  | None, _ -> ()
  | Some _, None -> missing "csv"
  | Some path, Some o ->
      Csv_out.write ~path ~header:o.header ~rows:o.rows;
      Printf.eprintf "CSV written to %s\n%!" path);
  match (json, out) with
  | None, _ -> ()
  | Some _, None -> missing "json"
  | Some path, Some o ->
      (* The --json surface is the canonical Api.Response envelope, the
         same schema `nldl serve` answers with and the bench artifact
         embeds — consumers parse one shape, whatever produced it. *)
      let response =
        {
          Api.Response.body =
            Api.Response.Table
              { experiment = name; header = o.header; rows = json_of_table o.header o.rows };
          provenance = { Api.Response.solver = "nldl.registry" };
        }
      in
      Obs.Json.write_file path (Api.Response.to_json response);
      Printf.eprintf "JSON written to %s\n%!" path

let to_cmd e =
  (* cmdliner evaluates [$] arguments left to right, so the logging and
     observability setup run before the command body, and the
     trace/metrics files are flushed after it returns. *)
  let run () obs csv json thunk =
    let out, status = thunk () in
    dump e.name out csv json;
    finish_obs obs;
    (* Gated commands (nldl lint) carry the gate result in their exit
       code, returned after the flushes so --trace/--json stay intact. *)
    status
  in
  Cmd.v
    (Cmd.info e.name ~doc:e.synopsis)
    Term.(const run $ logs_term $ obs_term $ csv_file $ json_file $ e.term)
