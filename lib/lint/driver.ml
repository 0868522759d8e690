let default_roots = [ "lib"; "bin"; "bench"; "test" ]

(* Normalize to '/' separators so findings and baselines are identical
   across platforms (and so scoping prefixes match). *)
let normalize path =
  String.map (fun c -> if c = '\\' then '/' else c) path

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let scope_of ~file ~(marks : Attrs.file_marks) ~emit : Rules.scope =
  {
    file;
    in_lib = starts_with ~prefix:"lib/" file;
    in_kernels = starts_with ~prefix:"lib/kernels/" file;
    in_hot =
      starts_with ~prefix:"lib/kernels/" file || starts_with ~prefix:"lib/linalg/" file;
    in_instrumented =
      starts_with ~prefix:"lib/des/" file
      || starts_with ~prefix:"lib/mapreduce/" file
      || starts_with ~prefix:"lib/exec/" file;
    in_experiments = starts_with ~prefix:"lib/experiments/" file;
    unsafe_zone = marks.unsafe_zone <> None;
    domain_safe = marks.domain_safe <> None;
    file_allows = marks.file_allows;
    expr_depth = 0;
    allow_stack = [];
    unsafe_sites = 0;
    emit;
  }

let iterator scope =
  Rules.scoping scope
    (List.fold_left
       (fun it (r : Rules.t) -> r.extend scope it)
       Ast_iterator.default_iterator Rules.all)

(* Annotation hygiene that needs whole-file context. *)
let mark_findings ~file ~(marks : Attrs.file_marks) ~unsafe_sites =
  let missing_reason name (m : Attrs.mark option) =
    match m with
    | Some { reason = None; mark_loc } ->
        [
          Finding.of_loc ~rule:"U102" ~file ~loc:mark_loc
            ~message:
              (Printf.sprintf
                 "[@@@%s] without a reason string; name the validation site or \
                  safety mechanism"
                 name);
        ]
    | _ -> []
  in
  missing_reason "nldl.unsafe_zone" marks.unsafe_zone
  @ missing_reason "nldl.domain_safe" marks.domain_safe
  @ (match marks.unsafe_zone with
    | Some { mark_loc; _ } when unsafe_sites = 0 ->
        [
          Finding.of_loc ~rule:"U103" ~file ~loc:mark_loc
            ~message:
              "[@@@nldl.unsafe_zone] but the file no longer contains any \
               unsafe access; drop the annotation";
        ]
    | _ -> [])
  @ List.map
      (fun (name, loc) ->
        Finding.of_loc ~rule:"X001" ~file ~loc
          ~message:
            (Printf.sprintf
               "unknown attribute [%s]; known: nldl.allow, nldl.unsafe_zone, \
                nldl.domain_safe, nldl.bounds_validated"
               name))
      marks.unknown

(* Phase 1 for one unit: per-file rules + call-graph fragment.  Pure in
   the source (path + content), which is what makes it cacheable. *)
let lint_source (src : Source.t) : Finding.t list * Callgraph.fragment =
  let file = src.Source.file in
  let findings = ref [] in
  let emit f = findings := f :: !findings in
  match Source.parse src with
  | Source.Parse_error msg ->
      let what =
        match src.Source.kind with
        | Source.Intf -> "interface failed to parse: "
        | Source.Impl -> "failed to parse: "
      in
      ( [ Finding.make ~rule:"E000" ~file ~line:1 ~col:0 ~message:(what ^ msg) ],
        Callgraph.empty_fragment ~file )
  | Source.Signature sg ->
      (* Interfaces carry no expressions the D/U/S/H rules look at, but
         walking keeps any future signature-level rules wired. *)
      let marks = Attrs.empty_marks in
      let scope = scope_of ~file ~marks ~emit in
      let it = iterator scope in
      it.signature it sg;
      (List.rev !findings, Callgraph.empty_fragment ~file)
  | Source.Structure str ->
      let marks = Attrs.file_marks str in
      let scope = scope_of ~file ~marks ~emit in
      let it = iterator scope in
      it.structure it str;
      ( mark_findings ~file ~marks ~unsafe_sites:scope.unsafe_sites
        @ List.rev !findings,
        Callgraph.extract ~file ~marks str )

(* Phase 2: link fragments, close over parallel escapes, run R401-403. *)
let analyze_fragments frags =
  let graph = Callgraph.build frags in
  let esc = Escape.compute graph in
  (graph, esc, Interproc.findings graph esc)

let analyze_strings units =
  let per_unit =
    List.map
      (fun (file, src) -> lint_source (Source.of_string ~file:(normalize file) src))
      units
  in
  let graph, esc, inter = analyze_fragments (List.map snd per_unit) in
  ( graph,
    esc,
    List.sort Finding.compare (List.concat_map fst per_unit @ inter) )

let lint_strings units =
  let _, _, findings = analyze_strings units in
  findings

let lint_string ~file src = lint_strings [ (file, src) ]

(* --- tree walk ---------------------------------------------------------- *)

let rec walk root acc rel =
  let path = Filename.concat root rel in
  if (not (Sys.file_exists path)) || not (Sys.is_directory path) then acc
  else
    Array.fold_left
      (fun acc entry ->
        if entry = "" || entry.[0] = '.' || entry = "_build" then acc
        else
          let rel = rel ^ "/" ^ entry in
          let path = Filename.concat root rel in
          if Sys.is_directory path then walk root acc rel
          else if
            Filename.check_suffix entry ".ml" || Filename.check_suffix entry ".mli"
          then rel :: acc
          else acc)
      acc
      (Sys.readdir path)

let collect ~root ~roots =
  List.sort String.compare
    (List.fold_left (fun acc r -> walk root acc (normalize r)) [] roots)

(* H304: every lib/ implementation needs an interface. *)
let missing_mli files =
  let set = Hashtbl.create 256 in
  List.iter (fun f -> Hashtbl.replace set f ()) files;
  List.filter_map
    (fun f ->
      if
        starts_with ~prefix:"lib/" f
        && Filename.check_suffix f ".ml"
        && not (Hashtbl.mem set (f ^ "i"))
      then
        Some
          (Finding.make ~rule:"H304" ~file:f ~line:1 ~col:0
             ~message:
               "lib/ module without an .mli; write one exporting only what \
                callers use")
      else None)
    files

type result = {
  files : int;
  findings : Finding.t list;
  fresh : Finding.t list;
  resolved : string list;
  baseline_path : string;
  updated : bool;
  graph : Callgraph.t;
  escape : Escape.t;
  cache_hits : int;
  cache_misses : int;
}

let run ?(root = ".") ?(roots = default_roots) ?(baseline_file = "lint_baseline.txt")
    ?(update_baseline = false) ?cache_dir ?(use_cache = true)
    ?(interproc = true) () =
  let files = collect ~root ~roots in
  let dir = match cache_dir with Some d -> d | None -> Cache.default_dir () in
  let hits = ref 0 and misses = ref 0 in
  let per_file =
    List.map
      (fun rel ->
        let src = Source.read ~root rel in
        if not use_cache then begin
          incr misses;
          lint_source src
        end
        else
          let digest = Source.digest src in
          match Cache.load ~dir ~digest with
          | Some p ->
              incr hits;
              (p.Cache.p_findings, p.Cache.p_fragment)
          | None ->
              incr misses;
              let local, frag = lint_source src in
              Cache.store ~dir ~digest
                { Cache.p_findings = local; p_fragment = frag };
              (local, frag))
      files
  in
  let local = List.concat_map fst per_file in
  let graph, escape, inter =
    if interproc then analyze_fragments (List.map snd per_file)
    else analyze_fragments []
  in
  let findings =
    List.sort Finding.compare (local @ inter @ missing_mli files)
  in
  let baseline_path = Filename.concat root baseline_file in
  let baseline = Baseline.load baseline_path in
  let fresh, resolved = Baseline.diff ~baseline findings in
  if update_baseline then Baseline.save baseline_path findings;
  {
    files = List.length files;
    findings;
    fresh;
    resolved;
    baseline_path;
    updated = update_baseline;
    graph;
    escape;
    cache_hits = !hits;
    cache_misses = !misses;
  }

let gate_ok r = r.fresh = []

let graph_json r = Interproc.graph_json r.graph r.escape

let render r =
  let buf = Buffer.create 1024 in
  List.iter
    (fun f ->
      let tag = if List.memq f r.fresh then " NEW" else "" in
      Buffer.add_string buf (Finding.to_string f ^ tag ^ "\n"))
    r.findings;
  List.iter
    (fun k ->
      Buffer.add_string buf
        (Printf.sprintf "stale baseline entry (fixed? run --update-baseline): %s\n" k))
    r.resolved;
  Buffer.add_string buf
    (Printf.sprintf
       "nldl-lint: %d files, %d findings (%d new, %d baselined, %d stale \
        baseline); graph: %d nodes, %d escaping; cache: %d hit, %d miss%s\n"
       r.files (List.length r.findings) (List.length r.fresh)
       (List.length r.findings - List.length r.fresh)
       (List.length r.resolved)
       (Callgraph.node_count r.graph)
       (Escape.count r.escape) r.cache_hits r.cache_misses
       (if r.updated then Printf.sprintf "; baseline %s updated" r.baseline_path
        else ""))
  ;
  Buffer.contents buf

let json r =
  Obs.Json.Obj
    [
      ("files", Obs.Json.Int r.files);
      ("total", Obs.Json.Int (List.length r.findings));
      ("new", Obs.Json.Int (List.length r.fresh));
      ("stale_baseline", Obs.Json.Int (List.length r.resolved));
      ("graph_nodes", Obs.Json.Int (Callgraph.node_count r.graph));
      ("escaping", Obs.Json.Int (Escape.count r.escape));
      ("cache_hits", Obs.Json.Int r.cache_hits);
      ("cache_misses", Obs.Json.Int r.cache_misses);
      ( "findings",
        Obs.Json.List
          (List.map
             (fun f ->
               match Finding.to_json f with
               | Obs.Json.Obj fields ->
                   Obs.Json.Obj
                     (fields @ [ ("new", Obs.Json.Bool (List.memq f r.fresh)) ])
               | j -> j)
             r.findings) );
    ]
