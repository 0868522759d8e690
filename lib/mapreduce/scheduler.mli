(** The map-phase scheduler: demand-driven task hand-out on a
    heterogeneous platform, as in Hadoop (Section 4: "processors ask for
    new tasks as soon as they end processing one"), extended from the
    original clairvoyant simulation to a progress-based, fault-tolerant
    runtime:

    - {b affinity-aware} selection (the conclusion's proposal): among
      pending tasks, prefer the one whose input blocks are already
      cached on the requesting worker;
    - {b speculative re-execution}: an idle worker duplicates a running
      task; either Hadoop-style ({!At_idle}: duplicate the task with
      the latest realized finish) or LATE-style ({!Late}: duplicate
      only tasks whose {e observed} progress rate extrapolates to the
      latest finish and falls below a threshold of the mean rate);
    - {b fault injection} ([?faults]): a deterministic [Fault.Plan] of
      worker crashes (with optional recovery), compute slowdown
      windows, and per-link fetch-failure probabilities.  Crashed
      workers lose their block cache and their in-flight copy; the
      orphaned task is re-enqueued with capped exponential backoff
      ([config.retry]).  A failed fetch costs
      [config.fetch_timeout *. transfer_time] before it is detected,
      then retries under the same backoff; after
      [config.retry.max_attempts] failures the (worker, task) pair is
      quarantined and the task is offered to other workers.

    Every injected fault is recorded in the outcome's [fault_log] and
    mirrored through [Obs.Trace] instants / [Obs.Metrics] counters, so
    Perfetto traces show the failures inline. *)

type policy =
  | Fifo  (** take pending tasks in submission order *)
  | Affinity  (** minimize the volume of blocks to fetch; ties → Fifo *)

type speculation =
  | Off
  | At_idle
      (** Hadoop: when no pending task remains, duplicate the running
          task with the latest (clairvoyantly known) finish if this
          worker would beat it *)
  | Late of { threshold : float }
      (** LATE (Zaharia et al.): duplicate the running task with the
          latest {e estimated} finish — extrapolated from observed
          fractional progress — but only when its progress rate is
          below [threshold] times the mean rate of all running copies.
          [threshold] in (0, 1]; 0.7 is a reasonable default. *)

type retry = {
  max_attempts : int;  (** total tries, >= 1 *)
  base_delay : float;  (** delay before the first retry; 0 = immediate *)
  max_delay : float;  (** cap on the exponential backoff *)
}
(** Backoff for task re-execution and fetch retries; delays are in
    simulated time units. *)

val default_retry : retry
(** 3 attempts, backoff base 0.5 capped at 8 time units. *)

val backoff_delay : retry -> attempt:int -> float
(** Capped exponential backoff: [base_delay * 2^(attempt-1)], at most
    [max_delay]; 0 when [base_delay = 0].  [attempt] is the 1-based
    index of the attempt that just failed. *)

type config = {
  policy : policy;
  speculation : speculation;
  retry : retry;
  fetch_timeout : float;
      (** a failed fetch attempt occupies the worker for
          [fetch_timeout *. transfer_time] before it is detected *)
}

val default_config : config
(** [Fifo], no speculation, {!default_retry}, fetch timeout 0.5: plain
    MapReduce. *)

type assignment = {
  task : int;  (** task id *)
  worker : int;
  start : float;  (** when the worker was assigned the copy *)
  fetch_end : float;  (** when all missing blocks had arrived *)
  finish : float;
  fetched : float;  (** data volume actually transferred *)
}

type outcome = {
  assignments : assignment list;
      (** completed copies, in completion order; killed or aborted
          copies appear in [attempts]/[wasted_work] instead *)
  completion : float array;  (** per task: earliest copy finish; [infinity] if none *)
  winner : int array;  (** per task: worker of the earliest copy; -1 if none *)
  makespan : float;  (** last finite task completion *)
  busy_until : float array;  (** per worker: end of its last copy (or kill) *)
  communication : float;  (** total data fetched, incl. duplicates *)
  per_worker_comm : float array;
  per_worker_tasks : int array;  (** copies completed by each worker *)
  duplicates : int;  (** speculative copies launched *)
  retries : int;
      (** injected-fault recoveries: fetch retries + task re-enqueues *)
  crashes_survived : int;  (** injected crashes processed during the run *)
  attempts : int array;  (** per task: copies started, incl. failed ones *)
  idle_workers : int;  (** workers that completed no copy *)
  unfinished : int list;  (** tasks no copy of which ever finished *)
  wasted_work : float;
      (** work units spent on copies that lost the duplicate race, were
          killed by a crash, or aborted on fetch exhaustion *)
  events_processed : int;
      (** discrete events popped during the simulation — the numerator
          of the events/sec throughput benchmark *)
  fault_log : Fault.Clock.event list;  (** injected events, in order *)
}

val run :
  ?config:config ->
  ?jitter:Numerics.Rng.t * float ->
  ?faults:Fault.Plan.t ->
  Platform.Star.t ->
  tasks:Task.t array ->
  block_size:(int -> float) ->
  outcome
(** Simulate the map phase.  Workers cache every block they fetch until
    they crash (the paper's "data already stored on a slave
    processor").  Deterministic given the same inputs: ties are broken
    by worker then task index, and all fault randomness is fixed inside
    [faults] — the same plan replays byte-identically at any domain
    count of the surrounding trial loop.

    [jitter] = [(rng, sigma)] multiplies every copy's computation time
    by an independent log-normal(0, sigma) factor — the stragglers that
    make speculative re-execution worthwhile.  Under {!At_idle} the
    scheduler still sees realized durations (clairvoyant); under
    {!Late} it only observes fractional progress.

    Raises [Invalid_argument] when [faults] addresses more workers than
    the platform has, or on a malformed config. *)
