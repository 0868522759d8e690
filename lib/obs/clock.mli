(** Monotonic nanosecond clock.

    The single clock every measured path uses: pool instrumentation,
    span tracing, [Sortlib.Multicore.speedup] and the bench harness.
    Monotonic (NTP slew and wall-clock steps do not affect it), origin
    arbitrary — only differences are meaningful. *)

val now_ns : unit -> int
(** Current monotonic time in nanoseconds as a native [int] (63 bits
    holds ~146 years of nanoseconds).  Allocation-free. *)

val ns_to_s : int -> float
(** Nanoseconds to seconds. *)

val elapsed_s : (unit -> 'a) -> 'a * float
(** [elapsed_s f] runs [f] and returns its result together with the
    elapsed monotonic time in seconds. *)
