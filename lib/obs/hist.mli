(** Log2-bucketed (HDR-style) histograms with per-domain shards.

    Values are non-negative integers (nanoseconds, sizes, depths;
    negative samples clamp to 0).  Values below [2^5] are counted
    exactly; larger values land in one of 32 linear sub-buckets per
    power-of-two octave, so bucket width never exceeds 1/32 of the
    bucket's lower bound and quantile estimates carry a bounded ~3%
    relative error.  The full non-negative [int] range fits in
    {!n_buckets} slots (~15 kB per histogram per recording domain).

    Disabled-mode contract (the default): {!record} is a
    single atomic flag load and allocates zero words.  Enabled-mode
    recording is also allocation-free once a domain's shard exists; hot
    loops should hoist {!shard} out of the loop and use {!record_into}
    (unconditional — gate it on your own cached enabled check).

    Registration is idempotent by name and mutex-protected, like
    [Metrics]; register at module init, not in hot loops. *)

val set_enabled : bool -> unit
val enabled : unit -> bool

type t
(** A registered histogram. *)

val create : string -> t
(** Register (or look up) a histogram by name. *)

val name : t -> string

val record : t -> int -> unit
(** Count one sample.  Zero-allocation; no-op while disabled. *)

type shard
(** One domain's slots for one histogram. *)

val shard : t -> shard
(** This domain's shard for [t], created on first use.  Call outside
    hot loops; the handle stays valid for the domain's lifetime. *)

val record_into : shard -> int -> unit
(** Unconditional record into a cached shard: a few domain-local array
    stores, zero allocation, no enabled check — the caller is expected
    to have hoisted the gate. *)

(* --- bucket geometry (pure, exposed for tests and exporters) --- *)

val n_buckets : int
val bucket_of : int -> int
(** Bucket index of a clamped non-negative value, in [0, n_buckets). *)

val bucket_lo : int -> int
val bucket_hi : int -> int
(** Inclusive value range covered by a bucket index. *)

(* --- snapshots --- *)

type summary = {
  s_name : string;
  count : int;
  sum : int;
  min_v : int;  (** exact tracked minimum; 0 when [count = 0] *)
  max_v : int;  (** exact tracked maximum; 0 when [count = 0] *)
  counts : int array;  (** merged bucket counts, length {!n_buckets} *)
}

val snapshot_one : t -> summary
val snapshot : unit -> summary list
(** Merge all domain shards; registration order. *)

val reset : unit -> unit
(** Zero every shard.  Registrations remain. *)

val mean : summary -> float

val quantile : summary -> float -> int
(** [quantile s q] estimates the [q]-quantile ([0 <= q <= 1]) from the
    merged buckets: never below the true sample, overshooting by at
    most one bucket width (relative error <= 1/32); [q = 0] and
    [q = 1] return the exact tracked min/max. *)
