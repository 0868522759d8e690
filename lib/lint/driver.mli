(** The two-phase lint pipeline.

    Phase 1 parses every unit through {!Source} and walks it once: the
    per-file rule registry ({!Rules.all}) folds over the
    {!Callgraph.extend} extraction under {!Rules.scoping}, so the walk
    yields the findings (plus the driver-side U102/U103/X001/E000
    checks) and the file's {!Callgraph.fragment}.  Phase 2 links all
    fragments into the whole-program {!Callgraph}, computes the
    parallel {!Escape} set and evaluates the interprocedural rules
    R401/R402/R403 ({!Interproc}).  H304 (missing [.mli]) runs on the
    collected file list.  Every run does both phases over every file;
    [dune build @lint] skips the run when no linted file changed. *)

val default_roots : string list
(** [lib bin bench test examples]: the tree [dune build @lint] and CI
    lint. *)

val analyze_strings :
  (string * string) list -> Callgraph.t * Escape.t * Finding.t list
(** Lint a fixture tree given as [(file, source)] pairs through both
    phases, cross-module escape and resolution included: the test entry
    point.  [file] is the repo-relative path used for scoping (a path
    under [lib/kernels/] enables the kernel rules, an [.mli] suffix
    parses as an interface).  Returns the graph and escape set for
    resolution / fixpoint assertions, and the sorted findings. *)

type result = {
  files : int;
  findings : Finding.t list;  (** all findings, sorted *)
  graph : Callgraph.t;  (** whole-program call graph (phase 2) *)
  escape : Escape.t;
  phase1_s : float;  (** walk, read, parse and per-file rules *)
  phase2_s : float;  (** link, escape and R401-R403 *)
}

val run : ?root:string -> ?roots:string list -> unit -> result
(** Walk [roots] (relative to [root], default ["."], skipping [_build]
    and dot-directories) and lint every [.ml]/[.mli].  A source file
    that cannot be read (a dangling symlink, say) is an E000 finding
    naming it.  Both phases are timed on {!Obs.Clock}. *)

val gate_ok : result -> bool
(** No findings: the gate of [dune build @lint] and CI. *)

val graph_json : result -> Obs.Json.t
(** The [lint_graph.json] artifact ({!Interproc.graph_json}). *)

val render : result -> string
(** Human report: one compiler-style line per finding and a one-line
    summary. *)

val json : result -> Obs.Json.t
(** The [lint_findings.json] artifact: totals plus every finding. *)
