(** The fault clock: the stateful bridge between an immutable
    {!Plan} and one run of its consumer, the MapReduce scheduler.

    A clock records every fault the run actually injects, in
    simulated-time order, and mirrors each one into the observability
    layer: an [Obs.Trace] instant (static names, ["fault.crash"],
    ["fault.fetch_failure"], ...) stamped at the wall-clock moment the
    simulator processed it — so Perfetto shows injected faults inline
    with the run's spans — plus an [Obs.Metrics] counter per kind. *)

type event =
  | Crash of { worker : int; time : float }
  | Recover of { worker : int; time : float }
  | Fetch_failure of { worker : int; task : int; attempt : int; time : float }
      (** [attempt] is the 1-based attempt within one copy's fetch *)
  | Task_retry of { task : int; attempt : int; time : float }
      (** the task was re-enqueued; it will restart at [time] *)
  | Quarantine of { worker : int; task : int; time : float }
      (** [worker] exhausted its fetch retries on [task]; the pair is
          barred for the rest of the run *)

type t

val create : Plan.t -> t
(** A fresh clock over [plan]. *)

val plan : t -> Plan.t

val record : t -> event -> unit
(** Append an event and emit its trace instant / metric counter. *)

val events : t -> event list
(** Everything recorded so far, in recording (simulated-time) order. *)
