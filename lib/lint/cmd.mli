(** Cmdliner surface of the [nldl_lint] executable. *)

val command : int Cmdliner.Cmd.t
(** Parses [DIR...] positionals (default {!Driver.default_roots}) plus
    [--root], [--json FILE], [--graph-json FILE] and [--rules]; lints,
    prints the human report (or the rule catalog for [--rules]) and
    writes the artifacts asked for, before it returns.  Evaluate with
    [Cmd.eval'] so the exit code carries the gate result: 0 passed,
    1 any finding. *)
