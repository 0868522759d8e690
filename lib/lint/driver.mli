(** The two-phase lint pipeline.

    Phase 1 parses every unit through {!Source} and runs the per-file
    rule registry ({!Rules.all} under {!Rules.scoping}, plus the
    driver-side U102/U103/X001/E000 checks), producing findings and a
    {!Callgraph.fragment} per file; this phase is pure in (path,
    content) and cached on disk through {!Cache}.  Phase 2 links all
    fragments into the whole-program {!Callgraph}, computes the
    parallel {!Escape} set and evaluates the interprocedural rules
    R401/R402/R403 ({!Interproc}).  H304 (missing [.mli]) still runs on
    the collected file list. *)

val default_roots : string list
(** [lib bin bench test]. *)

val lint_string : file:string -> string -> Finding.t list
(** Lint one compilation unit given as a string; [file] is the
    repo-relative path used for scoping (a path under [lib/kernels/]
    enables the kernel rules, [.mli] suffix parses as an interface).
    Runs both phases on the singleton tree. *)

val lint_strings : (string * string) list -> Finding.t list
(** Lint a multi-file fixture tree ([(file, source)] pairs) through both
    phases — cross-module escape and resolution included.  The
    interprocedural test fixture entry point. *)

val analyze_strings :
  (string * string) list -> Callgraph.t * Escape.t * Finding.t list
(** Like {!lint_strings} but also exposing the graph and escape set for
    resolution / fixpoint assertions. *)

type result = {
  files : int;
  findings : Finding.t list;  (** all findings, sorted *)
  fresh : Finding.t list;  (** findings not absorbed by the baseline *)
  resolved : string list;  (** stale baseline keys *)
  baseline_path : string;
  updated : bool;  (** baseline file was rewritten *)
  graph : Callgraph.t;  (** whole-program call graph (phase 2) *)
  escape : Escape.t;
  cache_hits : int;
  cache_misses : int;
}

val run :
  ?root:string ->
  ?roots:string list ->
  ?baseline_file:string ->
  ?update_baseline:bool ->
  ?cache_dir:string ->
  ?use_cache:bool ->
  ?interproc:bool ->
  unit ->
  result
(** Walk [roots] (relative to [root], default ["."], skipping [_build]
    and dot-directories), lint every [.ml]/[.mli], and diff against
    [baseline_file] (relative to [root], default [lint_baseline.txt]).
    With [update_baseline] the baseline is rewritten to the current
    findings instead of gating.  [cache_dir] overrides the phase-1 cache
    location (default {!Cache.default_dir}); [use_cache:false] disables
    it; [interproc:false] skips phase 2 entirely (the PR-5 per-file
    behaviour, kept as the bench baseline). *)

val gate_ok : result -> bool
(** No new findings (the CI gate; stale baseline lines are reported but
    do not fail the build). *)

val graph_json : result -> Obs.Json.t
(** The [lint_graph.json] artifact ({!Interproc.graph_json}). *)

val render : result -> string
(** Human report: one compiler-style line per finding (new ones marked
    [NEW]), stale baseline keys, and a one-line summary. *)

val json : result -> Obs.Json.t
(** The [lint_findings.json] artifact: totals plus every finding with a
    ["new"] flag. *)
