(** The [nldl serve] accept loop: a line protocol over a Unix-domain
    socket, one JSON request per line, one canonical {!Api.Response}
    line back, in order.

    All complete lines collected in one poll round form a batch for
    {!Batch.handle_batch}, so concurrent clients share the pool fan-out
    and the cache, and each client's answers come back in the order its
    lines arrived, control answers included.  Control queries bypass
    the solver:

    - [{"control":"ping"}] → [{"control":"pong"}]
    - [{"control":"stats"}] → the {!Batch.stats_json} payload
    - [{"control":"shutdown"}] → [{"control":"ok"}], then the daemon
      drains, closes every socket, unlinks the path and returns. *)

type config = {
  socket_path : string;
  batch : Batch.config;
}

val default_socket_path : unit -> string
(** [$TMPDIR/nldl-serve-<pid>.sock]. *)

val run : ?pool:Exec.Pool.t -> ?on_ready:(unit -> unit) -> config -> Batch.t
(** Bind, listen, call [on_ready], serve until a shutdown control line
    (or [Exit]), then tear down and return the engine so the caller can
    report final stats.  Ignores SIGPIPE for the whole process, so a
    client that hangs up before reading its answer cannot kill it.
    Raises [Unix.Unix_error] if binding fails. *)
