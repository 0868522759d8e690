(** Metrics registry: named counters and gauges, sharded per domain.
    Latency distributions go to {!Hist}.

    Counter increments write to domain-private slot arrays (one shard
    per domain, created on first touch), so hot-path updates never
    contend and never share cache lines across domains; shards are
    merged only by {!snapshot}.  Everything is gated on one atomic
    flag: while disabled (the default) each operation is a single flag
    load and allocates zero words.

    Registration ([counter], [gauge]) is idempotent by name and cheap
    but takes a mutex — register at module init or outside hot loops.
    {!snapshot} taken while other domains are actively incrementing may
    lag by in-flight updates; taken at a quiescent point (between pool
    submissions) it is exact. *)

val set_enabled : bool -> unit
val enabled : unit -> bool

type counter
type gauge

val counter : string -> counter
(** Register (or look up) a counter. *)

val incr_counter : counter -> unit
val add : counter -> int -> unit

val gauge : string -> gauge
(** Register (or look up) a gauge; initial value NaN (unset). *)

val set_gauge : gauge -> float -> unit
(** Last write wins across domains. *)

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
}

val snapshot : unit -> snapshot
(** Merge all shards; names in registration order. *)

val reset : unit -> unit
(** Zero every shard and reset gauges to NaN.  Registrations remain. *)
