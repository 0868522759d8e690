(** Process-oriented simulation on top of {!Engine}, written with OCaml
    5 effect handlers: simulation entities read as straight-line code
    ([wait], [acquire], [release]) and the handler turns each blocking
    point into an engine event.

    This is the programming style SimPy/SimGrid users expect; the
    event-level API of {!Engine} remains available underneath. *)

type t
(** A simulation world: an engine plus the process runtime. *)

val create : unit -> t
val now : t -> float

val spawn : t -> (unit -> unit) -> unit
(** Start a process at the current time.  The body may call {!wait},
    {!acquire}, {!release} and {!spawn} (nested spawns run in the same
    world). *)

val wait : float -> unit
(** Suspend the calling process for the given simulated delay
    ([>= 0]).  Must be called from inside a process. *)

type resource
(** A counted resource (semaphore) with FIFO waiters. *)

val resource : t -> capacity:int -> resource
(** Raises [Invalid_argument] when [capacity <= 0]. *)

val acquire : resource -> unit
(** Take one unit, suspending until available. *)

val release : resource -> unit
(** Return one unit, waking the first waiter.  Raises
    [Invalid_argument] when the resource is already at capacity. *)

val with_resource : resource -> (unit -> 'a) -> 'a
(** [acquire]/[release] bracket, exception safe. *)

val run : ?until:float -> t -> unit
(** Drive the world until no events remain (or the horizon). *)

exception Outside_process
(** Raised when {!wait}/{!acquire}/{!release} are called outside
    {!spawn}. *)
