(** The nldl command-line interface, as a library so the argument
    grammar is testable ({!eval_value}) and reusable. *)

val version : string
(** The toolkit's release, printed by [nldl --version]. *)

val command : int Cmdliner.Cmd.t
(** The full command group: fig4 | nonlinear | sort | ratio | partition
    | mapreduce | time | ablations | ..., each with a [-v] logging flag
    plus [--trace FILE] (Chrome trace-event JSON of the run's spans) and
    [--metrics[=FILE]] (merged metrics snapshot), and each evaluating
    to its exit status. *)

val run : unit -> int
(** Evaluate [Sys.argv] and return the exit code. *)

val eval_value :
  argv:string array ->
  (int Cmdliner.Cmd.eval_ok, Cmdliner.Cmd.eval_error) result
(** Evaluate an explicit argv (for tests). *)

type capture = { status : int; out : string }

val eval_for_test : string list -> (capture, [ `Parse | `Term | `Exn ]) result
(** The documented programmatic entry for tests: run
    [nldl args...] in-process with stdout captured, returning what the
    command printed and the exit status it returned (gated commands
    such as [nldl lint] or [nldl query] may return non-zero).
    [--help]/[--version] count as status 0. *)
