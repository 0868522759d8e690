(** Persistent domain pool with chunked dynamic scheduling.

    [Numerics.Parallel]'s original helpers paid a [Domain.spawn] /
    [Domain.join] round-trip on every call and split the index range into
    fixed contiguous blocks.  This pool spawns each worker domain once,
    on the first submission that needs it, parks it on a condition
    variable between submissions, and hands out work in chunks claimed
    through a shared atomic index, so uneven tasks (buckets of different
    sizes, rows of different cost) load-balance dynamically.

    Sizing a pool spawns nothing.  A process that creates a pool but
    only ever runs sequentially (a one-CPU daemon, [d <= 1] experiment
    paths) therefore stays one domain, and its minor collections pay no
    stop-the-world rendezvous with parked workers.

    Submissions are synchronous: [parallel_for] returns once every index
    has run.  A pool must only receive submissions from one domain at a
    time (the experiment drivers and benches are single-threaded at the
    top level); nested submissions from inside a running body are safe
    and execute sequentially on the calling domain. *)

type t
(** A pool of worker domains.  The submitting domain always participates
    in the work, so a pool of size [d] runs bodies on up to [d] domains
    while owning at most [d - 1] workers. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count], at least 1. *)

val create : ?domains:int -> unit -> t
(** [create ~domains ()] makes a pool of capacity [domains] (default
    {!default_domains}) without spawning any worker.  A submission whose
    [min workers n] participants exceed the workers spawned so far
    spawns the missing ones before it starts; they then stay parked
    until {!teardown}.  [domains <= 1] gives a pool that runs everything
    sequentially on the caller. *)

val size : t -> int
(** The pool's capacity: the number of domains it can use, including
    the caller, whether or not its workers are spawned yet. *)

val ensure : t -> domains:int -> unit
(** Raise the pool's capacity to at least [domains] (no-op if already
    that large or torn down).  Spawns nothing: the next submission that
    needs the extra workers spawns them.  Must not be called while a
    submission is in flight. *)

val teardown : t -> unit
(** Shut down and join all workers.  Idempotent.  A torn-down pool still
    accepts submissions but runs them sequentially. *)

val parallel_for : ?workers:int -> ?chunk:int -> t -> int -> (int -> unit) -> unit
(** [parallel_for pool n body] runs [body i] for [i] in [0 .. n-1].
    [?workers] caps how many domains participate (default: pool size),
    and so how many workers the call may spawn;
    [?chunk] overrides the chunk size (default: enough chunks for ~8 per
    participant).  [body] must only touch disjoint state per index.  If a
    body raises, remaining chunks are skipped and the first exception is
    re-raised in the caller with its backtrace; the pool remains usable.
    Runs sequentially when [n <= 1], [workers = 1], the pool is torn
    down, or the call is nested inside another submission. *)

val warm_up : workers:int -> t -> unit
(** Spawn the [workers - 1] workers a [~workers]-wide submission uses,
    with an empty one, so a timed call after it does not pay the
    one-off spawn cost.  No-op when [workers <= 1]. *)

val parallel_map_array :
  ?workers:int -> ?chunk:int -> t -> ('a -> 'b) -> 'a array -> 'b array
(** Element-wise map with the same contract as {!parallel_for}. *)

val get_global : ?at_least:int -> unit -> t
(** The process-wide shared pool, created on first use (capacity
    {!default_domains}, or [at_least] if larger) and torn down via
    [at_exit].  Its capacity grows if a later caller asks for more
    domains; like {!create}, this spawns nothing. *)

(** {2 Stats}

    Always-on per-pool counters on the shared monotonic clock
    ([Obs.Clock]); recording costs two clock reads and a few plain
    stores per submission, no allocation.  Spans ([pool.parallel_for],
    [pool.worker.run]) and the [pool.submit_latency_ns] histogram are
    additionally emitted when [Obs.Trace] / [Obs.Hist] are enabled. *)

type worker_stats = {
  tasks : int;  (** submissions this slot ran chunks for *)
  chunks : int;  (** chunks claimed through the atomic index *)
  busy_ns : int;  (** time spent running chunks (slot 0: whole submissions) *)
  parked_ns : int;  (** workers only: time parked between submissions *)
}

type stats = {
  domains : int;  (** capacity, {!size} *)
  spawned : int;  (** worker domains spawned so far, at most [domains - 1] *)
  submissions : int;  (** parallel submissions completed *)
  sequential_runs : int;
      (** calls that ran sequentially: [n <= 1], [workers = 1], torn
          down, or nested *)
  nested_runs : int;  (** the nested subset of [sequential_runs] *)
  per_domain : worker_stats array;
      (** [domains] slots: slot 0 is the submitting domain, then one slot
          per worker in spawn order; slots of unspawned workers stay
          zero *)
}

val stats : t -> stats
(** A copy of the counters.  Counters accumulate from [create] for the
    pool's whole lifetime: {!ensure} appends zeroed slots for the new
    workers and preserves existing ones, and {!teardown} does not reset
    anything — joined workers simply stop accumulating, while the
    sequential fallback of a torn-down pool still counts into
    [sequential_runs].  Exact when read between submissions (the
    documented single-submitter contract); a read that races a running
    submission may lag by the in-flight updates. *)
