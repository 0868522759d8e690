(** Cross-module value-level call graph.

    Built in two phases: {!extend} collects one file's plain-data
    {!fragment} on the rules' walk, and
    {!build} links all fragments into a graph whose nodes are top-level
    value bindings and whose edges are identifier references.

    The graph over-approximates on purpose: referencing a function
    counts as calling it, which subsumes first-class functions, functors
    and closures stored in records without any data-flow analysis.  See
    DESIGN.md §16 for the soundness discussion. *)

type pos = { line : int; col : int }

type mutation = {
  m_target : string;  (** printable target, e.g. ["Pool.global"] *)
  m_path : string list;  (** target identifier path, for resolution *)
  m_op : string;  (** [":="], ["<-"], ["Array.set"], ... *)
  m_protected : bool;  (** lexically under a [Mutex.protect] argument *)
}

type unsafe_site = {
  u_callee : string;  (** e.g. ["Array.unsafe_get"] *)
  u_vars : string list;  (** variables appearing in the index arguments *)
  u_forvars : string list;  (** enclosing for-loop variables at the site *)
  u_validated_by : string option;
      (** payload of an [[\@nldl.bounds_validated "site"]] in scope *)
}

type site_kind =
  | Mutation of mutation
  | Blocking of string  (** blocking primitive, e.g. ["Unix.sleepf"] *)
  | Unsafe of unsafe_site

type site = {
  s_pos : pos;
  s_kind : site_kind;
  s_allowed : bool;  (** the matching rule id is allow-suppressed here *)
  s_direct : string option;
      (** [Some prim] when the site sits syntactically inside an
          argument of a parallel primitive *)
}

type def = {
  d_names : string list;
  d_path : string list;
  d_pos : pos;
  d_is_func : bool;  (** body is syntactically a lambda *)
  d_refs : string list list;
  d_escape_refs : (string list * string) list;
  d_sites : site list;
  d_guards : string list;
}

type fragment = {
  f_file : string;
  f_modpath : string list;
  f_opens : string list list;
  f_aliases : (string * string list) list;
  f_defs : def list;
  f_unsafe_zone : bool;
  f_domain_safe : bool;
  f_parallel_sites : (pos * string) list;
}

val empty_fragment : file:string -> fragment
(** Fragment for interfaces and unparseable files: no defs, no sites. *)

type state
(** Extraction state for one file. *)

val state : Rules.scope -> state
(** Fresh state for the file [scope] describes; allow suppression of a
    site is read from [scope] at the point the site is walked. *)

val extend : state -> Ast_iterator.iterator -> Ast_iterator.iterator
(** The extraction layer.  The driver makes it the base of the rule
    fold, under {!Rules.scoping}, so one walk serves the rules and the
    graph.  It does not descend into attribute payloads.  A top-level
    [let], a top-level expression and a top-level
    [module M = (val e : S)] each become a definition ([_] for an
    unnamed one, [M] for the module). *)

val fragment : state -> fragment
(** The fragment of everything walked so far. *)

(** {1 Whole-program graph} *)

type node = {
  n_id : int;
  n_names : string list;
  n_path : string list;  (** qualified path, e.g. [\["Exec";"Pool";"parallel_for"\]] *)
  n_file : string;
  n_pos : pos;
  n_frag : int;
  n_def : int;
}

type t

val build : fragment list -> t

val node_count : t -> int
val node : t -> int -> node
val succs : t -> int -> int list
val roots : t -> (int * string) list
(** Escape roots: [(node, primitive)] for every definition referenced
    from inside a parallel primitive's arguments. *)

val fragments : t -> fragment list
val def_of : t -> int -> fragment * def
(** Fragment and definition record backing a node. *)

val resolve : t -> int -> string list -> int list
(** [resolve t frag path] resolves a reference path seen in fragment
    index [frag] (aliases expanded, opens tried for unqualified names,
    dotted-suffix match otherwise). *)

val resolve_name : t -> file:string -> string -> int list
(** Resolve a dotted name from an attribute payload (e.g.
    ["Fbuf.ensure"]); bare names resolve against [file]'s bindings. *)

val find : t -> string -> int list
(** Test helper: nodes answering to a dotted (or bare) name anywhere. *)
