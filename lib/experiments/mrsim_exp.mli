(** Million-scale fault-injected MapReduce simulation (single run).

    The same deterministic workload the bench's [des_throughput]
    section gates on, exposed as a catalog experiment so it can be run
    — and profiled with [nldl profile] — at any scale.  With metrics
    enabled, the scheduler reports per-event-type counts, sampled heap
    depth and wait/service/fetch/retry latency distributions; the
    outcome's schedule exports as a downsampled Gantt through
    {!Mapreduce.Timeline.write_chrome}. *)

type result = {
  workers : int;
  tasks : int;
  events : int;
  seconds : float;
  events_per_sec : float;
  makespan : float;
  retries : int;
  crashes : int;
  duplicates : int;
  unfinished : int;
}

val run :
  ?workers:int ->
  ?tasks:int ->
  ?crash_rate:float ->
  ?slowdown_rate:float ->
  ?fetch_failure:float ->
  ?horizon:float ->
  ?seed:int ->
  unit ->
  result * Mapreduce.Scheduler.outcome
(** Defaults reproduce the bench workload: 10^5 uniform workers,
    10^6 unit tasks, 0.1% crash rate (with recovery), 1% slowdown,
    1% fetch failures, seed 42. *)

val table : result -> Report.t
(** One row; [duplicates] counts speculative copies. *)
