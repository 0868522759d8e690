(** Span tracing: begin/end spans and instant events on the monotonic
    nanosecond clock, recorded into per-domain ring buffers.

    Disabled-mode contract (the default): every recording call is a
    single atomic flag load and allocates zero words — safe to leave in
    the hottest paths.  Enabled-mode recording is also allocation-free
    (preallocated ring buffers, the clock's int64 stays unboxed), but
    pass static string literals as names: the string is stored by
    reference, not copied.

    Each domain owns a 16384-event ring buffer created on its first
    event; when it wraps, the oldest events are overwritten ({!dropped}
    counts the loss).  Collection ({!events}, {!clear}) is meant to run
    at a quiescent point — after the traced workload, not during. *)

val set_enabled : bool -> unit
val enabled : unit -> bool

val begin_span : string -> unit
val end_span : string -> unit
(** Begin/end a named span on the calling domain.  Calls must nest
    properly per domain (Chrome trace B/E semantics). *)

val instant : string -> unit
(** A zero-duration marker event. *)

type kind = Begin | End | Instant
type event = { domain : int; ts_ns : int; kind : kind; name : string }

val events : unit -> event list
(** All buffered events, merged across domains, sorted by timestamp
    (stable: per-domain order is preserved for equal stamps). *)

val dropped : unit -> int
(** Events lost to ring-buffer wrap since the last {!clear}. *)

val dropped_by_domain : unit -> (int * int) list
(** Per-domain wrap losses as [(domain, dropped)] pairs, sorted by
    domain id — every domain that ever recorded appears, 0 when its
    ring has not wrapped. *)

val recorded : unit -> int
(** Total events ever recorded (kept + dropped) since the last
    {!clear}, across all domains. *)

val clear : unit -> unit
(** Empty every ring buffer (buffers stay allocated). *)
