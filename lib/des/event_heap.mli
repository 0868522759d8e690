(** Unboxed discrete-event heap, the priority queue of every DES
    consumer.

    Ordering contract: [pop] returns the minimum-priority payload, and
    payloads of equal priority come out in the order they were pushed
    (FIFO), so simulations with simultaneous events are deterministic.

    An implicit binary min-heap in structure-of-arrays layout:
    priorities in a flat [float array] (unboxed, single-load access),
    insertion seq numbers and int-encoded payloads in flat
    [int array]s, with zero per-operation allocation once capacity is
    reached (growth doubles all buffers, amortized O(1) words per
    push).

    Payloads are ints: consumers either encode the whole event in the
    integer (tag in low bits, index in high bits — [Mapreduce.Scheduler])
    or use it as a slot into a side table ([Engine]'s handler slab).

    [push], [pop], [min_priority] and [is_empty] are [@inline always]
    in the implementation, so float priorities cross the module
    boundary unboxed (the Closure middle-end inlines through the .cmx
    even without flambda); the Gc-counter tests in [test_des.ml] prove
    0 minor words per push+pop. *)

type t

val create : ?initial_capacity:int -> unit -> t

val size : t -> int

val high_water : t -> int
(** Maximum {!size} ever reached since creation — tracked
    unconditionally (one predicted branch per push) so instrumented
    consumers can report peak queue depth without sampling. *)

val is_empty : t -> bool

val min_priority : t -> float
(** Priority of the next event to pop.  Undefined (garbage, not an
    error) on an empty heap — check {!is_empty} first. *)

val push : t -> priority:float -> int -> unit
(** Raises [Invalid_argument] on a NaN priority. *)

val pop : t -> int
(** Removes and returns the minimum-priority payload; its priority is
    [min_priority] read before the call.  Raises [Invalid_argument] on
    an empty heap. *)

val exercise : t -> rounds:int -> batch:int -> unit
(** [rounds] iterations of [batch] pushes (scrambled priorities)
    followed by [batch] pops — the driver for the Gc-counter
    zero-allocation proof and the events/sec benchmark.  Lives inside
    the module so the measurement does not depend on cross-module
    inlining, which dev-profile builds disable via [-opaque] (those
    builds box one float per out-of-module [push] call; release builds
    and all inlined call sites pay zero). *)
