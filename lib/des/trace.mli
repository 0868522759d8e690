(** Execution traces: per-resource busy intervals recorded during a
    simulation, with a text Gantt rendering for the examples. *)

type interval = { start : float; finish : float; label : string }

type t

val create : unit -> t

val record : t -> resource:string -> start:float -> finish:float -> label:string -> unit
(** Raises [Invalid_argument] when [finish < start]. *)

val resources : t -> string list
(** In first-recorded order. *)

val intervals : t -> resource:string -> interval list
(** In recording order; empty for unknown resources. *)

val makespan : t -> float
(** Largest [finish] over all intervals; 0 when empty. *)

val render_gantt : ?width:int -> t -> string
(** A fixed-width text Gantt chart, one row per resource. *)

val to_chrome : ?max_events:int -> t -> Obs.Json.t
(** Chrome trace-event array for Perfetto / about://tracing: one thread
    row per resource, one complete ("X") event per interval.  One
    simulated time unit renders as one second.

    When [max_events] is given and the trace holds more intervals, a
    deterministic 1-in-k systematic sample is emitted instead
    (byte-identical across runs for identical traces).  Every export
    starts with a "trace_stats" metadata event carrying explicit
    recorded / sampled_out / emitted counts.  Raises [Invalid_argument]
    when [max_events < 1]. *)

val write_chrome : ?max_events:int -> t -> string -> unit
(** [write_chrome t path] writes {!to_chrome} to [path]. *)
