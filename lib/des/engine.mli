(** A minimal discrete-event simulation engine.

    Events are closures scheduled at absolute times; the engine pops
    them in time order (FIFO within a timestamp) and lets each handler
    schedule further events.  This drives the demand-driven block
    scheduler of Section 4.1.1 and the MapReduce runtime. *)

type t

exception Causality of { now : float; requested : float }
(** Raised when scheduling an event in the past. *)

val create : unit -> t

val now : t -> float
(** Current simulated time; 0 before any event runs. *)

val schedule : t -> time:float -> (t -> unit) -> unit
(** Schedule at absolute [time >= now t]. *)

val schedule_after : t -> delay:float -> (t -> unit) -> unit
(** Schedule [delay >= 0] after the current time. *)

val step : t -> bool
(** Execute the next event.  [false] when the queue is empty. *)

val run : ?until:float -> t -> unit
(** Run until the queue drains, or until simulated time would exceed
    [until] (remaining events stay queued). *)
