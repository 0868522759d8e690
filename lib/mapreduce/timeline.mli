(** Visualization of a map-phase outcome: per-worker fetch/compute
    intervals as a {!Des.Trace}. *)

val trace : Scheduler.outcome -> Des.Trace.t
(** Resources ["w<i>"]: label [f] for fetch intervals, [x] for compute
    intervals (one pair per executed copy). *)

val write_chrome : ?max_events:int -> Scheduler.outcome -> string -> unit
