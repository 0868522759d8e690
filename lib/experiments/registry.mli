(** First-class experiment registry.

    Each CLI subcommand is an {!entry} value: a name, a one-line
    synopsis, and a Cmdliner term evaluating to a thunk that runs the
    experiment and returns its results as {!Report.t} tables (none for
    free-form commands).
    The driver builds its subcommand group by folding {!to_cmd} over
    {!Catalog.all} — adding an experiment means adding one entry to the
    catalog, never editing the driver's dispatch.

    {!to_cmd} equips every entry uniformly with:
    - [-v]/[--verbose] log verbosity (repeatable);
    - [--trace FILE] Chrome trace-event JSON (Perfetto-loadable) and
      [--metrics[=FILE]] runtime-metrics snapshot;
    - the text report: every returned table, printed in order;
    - [--csv FILE] and [--json FILE] dumps of every returned table:
      one table writes FILE, k > 1 tables write [<stem>.<i><ext>] for
      [i = 1..k] in print order.  CSV floats carry the JSON float
      printer's full precision; each JSON file is one [Api.Response]
      table envelope, written as one lossless wire line.

    {b Optional-argument convention} (shared arg terms below mirror it;
    every experiment's [run] follows the same spellings):
    - [?processor_counts] — worker counts to sweep (flag [-p P,...]);
    - [?trials] — repetitions per data point (flag [--trials T]);
    - [?seed] — root PRNG seed (flag [--seed S]);
    - [?domains] — domain-pool size for parallel trial loops. *)

type entry = {
  name : string;
  synopsis : string;
  term : (unit -> Report.t list * int) Cmdliner.Term.t;
      (** thunk result: tables, exit status *)
}

val entry : name:string -> synopsis:string -> (unit -> Report.t list) Cmdliner.Term.t -> entry
(** Ordinary experiment: always exits 0. *)

val gated :
  name:string -> synopsis:string -> (unit -> Report.t list * int) Cmdliner.Term.t -> entry
(** Command whose thunk also decides the process exit status (e.g.
    [nldl query] exiting 2 when it cannot reach its daemon); {!to_cmd}
    returns it after the trace/metrics/csv/json flushes. *)

(** {1 Shared argument terms} *)

val positive_int : int Cmdliner.Arg.conv
(** An integer >= 1; anything else is a usage error. *)

val profile : Platform.Profiles.t Cmdliner.Term.t
(** [--profile PROFILE]: homogeneous, uniform, lognormal or bimodal;
    defaults to the paper's uniform profile. *)

val trials : ?default:int -> unit -> int Cmdliner.Term.t
(** [--trials T], a {!positive_int}, default 100. *)

val seed : int Cmdliner.Term.t
(** [--seed S], default 20130520. *)

val processor_counts : default:int list -> int list Cmdliner.Term.t
(** [-p P,...]. *)

val domains : int option Cmdliner.Term.t
(** [--domains D]: domain-pool size for parallel trial loops; default
    lets the experiment pick. *)

(** {1 Driver assembly} *)

val to_cmd : entry -> int Cmdliner.Cmd.t
(** Wrap an entry into a complete subcommand evaluating to its exit
    status: logging and trace/metrics setup run before the body; after
    it, the returned tables are printed, [--csv]/[--json] write them,
    and the trace/metrics files are flushed. *)
