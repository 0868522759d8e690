open Cmdliner

let dirs =
  Arg.(
    value & pos_all string Driver.default_roots
    & info [] ~docv:"DIR"
        ~doc:
          ("Directories to lint (default: "
          ^ String.concat " " Driver.default_roots
          ^ ")."))

let root =
  Arg.(
    value & opt string "."
    & info [ "root" ] ~docv:"DIR"
        ~doc:"Repository root; DIRs and --baseline are resolved against it.")

let baseline =
  Arg.(
    value & opt string "lint_baseline.txt"
    & info [ "baseline" ] ~docv:"FILE" ~doc:"Baseline of tolerated findings.")

let update =
  Arg.(
    value & flag
    & info [ "update-baseline" ]
        ~doc:"Rewrite the baseline to the current findings instead of gating.")

let json_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write the findings as JSON to $(docv) (\"-\" = stdout).")

let graph_json_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "graph-json" ] ~docv:"FILE"
        ~doc:
          "Write the call-graph/escape-set artifact to $(docv) (\"-\" = \
           stdout).")

let no_cache =
  Arg.(
    value & flag
    & info [ "no-cache" ] ~doc:"Disable the digest-keyed phase-1 cache.")

let cache_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:"Phase-1 cache directory (default: under the system temp dir).")

let rules_flag =
  Arg.(value & flag & info [ "rules" ] ~doc:"List the rule catalog and exit.")

let print_rules () =
  List.iter
    (fun (id, synopsis) -> Printf.printf "%-5s %s\n" id synopsis)
    Rules.catalog

let execute root dirs baseline update json_out graph_json_out no_cache cache_dir
    rules =
  if rules then begin
    print_rules ();
    0
  end
  else begin
    let r =
      Driver.run ~root ~roots:dirs ~baseline_file:baseline ~update_baseline:update
        ?cache_dir ~use_cache:(not no_cache) ()
    in
    print_string (Driver.render r);
    (match json_out with
    | None -> ()
    | Some "-" -> print_string (Obs.Json.to_string (Driver.json r))
    | Some path ->
        Obs.Json.write_file path (Driver.json r);
        Printf.eprintf "Lint findings written to %s\n%!" path);
    (match graph_json_out with
    | None -> ()
    | Some "-" -> print_string (Obs.Json.to_string (Driver.graph_json r))
    | Some path ->
        Obs.Json.write_file path (Driver.graph_json r);
        Printf.eprintf "Call graph written to %s\n%!" path);
    if update || Driver.gate_ok r then 0 else 1
  end

let command =
  let doc = "Static invariant checker for the nldl tree (D/U/S/H/R rules)" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Parses every .ml/.mli under the given directories with compiler-libs \
         and enforces the project invariants: determinism (D-rules), audited \
         unsafe zones (U-rules), domain safety of pool-executed libraries \
         (S-rules), hygiene (H-rules), and the interprocedural race / \
         proof-obligation / blocking-call rules (R-rules) over a whole-program \
         call graph.  Exits 1 when a finding is not absorbed by the committed \
         baseline.";
    ]
  in
  Cmd.v
    (Cmd.info "nldl_lint" ~doc ~man)
    Term.(
      const execute $ root $ dirs $ baseline $ update $ json_out $ graph_json_out
      $ no_cache $ cache_dir $ rules_flag)
