(** The rule registry.

    Each syntactic rule extends an {!Ast_iterator.iterator}; the driver
    folds {!all} over {!Ast_iterator.default_iterator}, wraps the
    result in a scoping layer that tracks [[\@nldl.allow]] suppression
    and expression depth, and runs it over every parsed file.  Rules
    report through {!scope.emit} via {!report}, which drops findings
    whose id is suppressed at the current point.

    Rule groups (see CONTRIBUTING.md for the one-line table):
    - {b D} determinism: D001 bans [Stdlib.Random] global state, D002
      bans wall-clock reads outside [Obs.Clock];
    - {b U} unsafe zones: U101 bans [*.unsafe_*] access outside an
      [[\@\@\@nldl.unsafe_zone]] module (U102/U103 are driver-side
      annotation hygiene);
    - {b S} domain safety: S201 flags top-level mutable state in [lib/]
      modules unless the file carries [[\@\@\@nldl.domain_safe]];
    - {b H} hygiene: H301 [Obj.magic], H302 polymorphic [=]/[<>]/
      [compare] against a float literal in [lib/], H303 [Array.concat]/
      [Array.append] in [lib/kernels] hot paths (H304, missing [.mli],
      is driver-side), H305 boxed float-matrix construction or
      tuple-returning slice helpers in the hot libraries ([lib/kernels],
      [lib/linalg]) — flat [Kernels.Fbuf] stores and int accessors /
      mutable slice records are the sanctioned shapes. *)

type scope = {
  file : string;  (** repo-relative path, ['/'] separators *)
  in_lib : bool;
  in_kernels : bool;
  in_hot : bool;  (** [lib/kernels/] or [lib/linalg/] (H305's scope) *)
  in_instrumented : bool;
      (** [lib/des/], [lib/mapreduce/] or [lib/exec/] (H307's
          histogram-array scope; [lib/sortlib] is deliberately out —
          its counting arrays are the algorithm, not telemetry) *)
  in_experiments : bool;
      (** [lib/experiments/] (H308's scope: response JSON goes through
          the [Api.Response] envelope, never hand-rolled) *)
  unsafe_zone : bool;  (** file carries [[\@\@\@nldl.unsafe_zone]] *)
  domain_safe : bool;  (** file carries [[\@\@\@nldl.domain_safe]] *)
  file_allows : string list;
  mutable expr_depth : int;  (** > 0 while inside any expression *)
  mutable allow_stack : string list list;
  mutable unsafe_sites : int;  (** [*.unsafe_*] uses seen (U103 input) *)
  emit : Finding.t -> unit;
}

type t = {
  id : string;
  group : string;
  synopsis : string;
  extend : scope -> Ast_iterator.iterator -> Ast_iterator.iterator;
}

val allowed : scope -> string -> bool
(** Is the rule id suppressed here (enclosing or file-wide allow)? *)

val report : scope -> id:string -> loc:Location.t -> string -> unit

(** {1 Syntax helpers shared with {!Callgraph}} *)

val longident_path : Longident.t -> string list
(** Flattened path with a leading [Stdlib] stripped. *)

val ident_path : Parsetree.expression -> string list
(** {!longident_path} of an identifier expression; [[]] for anything
    else. *)

val peel : Parsetree.expression -> Parsetree.expression
(** Strip type constraints, coercions and local opens. *)

val is_unsafe_path : string list -> bool
(** Is this callee path an unchecked [M.unsafe_*] access? *)

val all : t list
(** The syntactic rules, in id order. *)

val catalog : (string * string) list
(** (id, synopsis) for every rule id the linter can emit, including the
    driver-side ones (U102, U103, H304, X001, E000) — the [--rules]
    listing and the CONTRIBUTING.md table. *)

val scoping : scope -> Ast_iterator.iterator -> Ast_iterator.iterator
(** Outermost layer: pushes [[\@nldl.allow]] sets found on expressions,
    value bindings and module bindings onto [allow_stack] and tracks
    [expr_depth] around expression descent.  Must wrap the composed
    iterator so suppression is in force when the rules run, and when
    the {!Callgraph.extend} base records a site. *)
