(** Request evaluation: the one place that dispatches a query to the
    DLT solvers, and the one place a solver exception becomes a typed
    error.  [nldl query --inline], [Serve.Batch] (hence the daemon) and
    the bench serve-throughput section all answer through it, which is
    what makes their answers byte-identical, failures included. *)

val solver_name : Request.t -> string
(** Which solver {!eval} will use: ["dlt.linear"] (closed form),
    ["dlt.nonlinear.newton"], or ["dlt.steady_state"] for
    multi-load admission.

    ["dlt.linear"] answers are the latency-free closed forms: a
    [schedule]'s replay charges the request's [latency], the shares and
    the [ratio]/[plan] makespans ignore it (one-port, speeds [1,1,1,1],
    latency 1, total 10: [plan] says 10.667, [schedule] ends at 14.667).
    ["dlt.nonlinear.newton"] charges latencies and, under one-port,
    picks the participants. *)

val eval : Request.t -> Response.t
(** Validate and answer; never raises.  Invalid requests yield an
    [Error] body with code ["invalid_request"]; a solver that raises
    yields code ["solver_failure"] with the exception text as message
    and {!solver_name} as provenance. *)

val eval_line : string -> Response.t
(** Parse one wire line and answer it like {!eval}; malformed JSON
    yields an [Error] body with code ["bad_request"]. *)
