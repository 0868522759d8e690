(** Request batching, admission control and cache management: the
    daemon's engine, factored out of the socket loop so tests and the
    bench can drive it in-process.

    Every answer is the canonical {!Api.Response.to_line} rendering, so
    a cached response is byte-identical to a cold solve and to
    [nldl query --inline]. *)

type config = {
  cache_capacity : int;  (** LRU entries; > 0 *)
  queue_depth : int;  (** cache misses admitted per batch; overflow is rejected *)
  deadline_s : float option;
      (** admission cut-off in seconds, timed from the start of the
          batch: a cache miss reached after it is answered ["deadline"]
          unsolved.  It is checked only at admission, before any solve,
          so it never bounds a solve: an admitted request runs to the
          end. *)
}

val default_config : config
(** 1024 entries, depth 256, no deadline. *)

type t

val create : ?pool:Exec.Pool.t -> config -> t
(** [pool] defaults to {!Exec.Pool.get_global}.  Raises
    [Invalid_argument] on a non-positive capacity or depth. *)

val handle_batch : ?control:(string -> string) -> t -> string array -> string array
(** Answer a batch: memo hits resolve first, without parsing;
    semantically-equal spellings hit the fingerprint LRU after one
    decode.  Misses are deduplicated by fingerprint,
    those beyond [queue_depth] are rejected with an ["overloaded"]
    error and those reached after [deadline_s] with ["deadline"]; the admitted
    ones are answered by {!Api.Eval.eval} concurrently on the pool
    ({!Exec.Pool.default_domains} wide).  Successful answers are
    cached; error answers (a raising solver gives ["solver_failure"])
    are not.  Responses are in request order.

    With [control], a line that does not decode as a request but is a
    [{"control": c}] object is answered by [control c], called once
    every earlier line's answer is final; it is not counted as a
    request.  Without it, such a line is a ["bad_request"]. *)

val handle_line : t -> string -> string
(** Answer one raw request line (no trailing newline).  Repeats of a
    byte-identical line are answered from the memo with zero
    allocation; anything else is [(handle_batch t [| raw |]).(0)], so
    both entry points give the same bytes. *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int
val requests : t -> int

val stats_json : t -> Obs.Json.t
(** Counters, cache occupancy and the latency histogram's quantiles —
    the payload of the daemon's [{"control":"stats"}] query. *)
