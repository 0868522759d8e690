(** Small multicore helpers over OCaml 5 domains.

    The simulators in this repository model parallel platforms; these
    helpers let the heavy kernels (local sorts, matrix products, trial
    sweeps) also *run* in parallel on the host machine.  Since the
    execution-layer refactor they delegate to the persistent domain pool
    in {!Exec.Pool}: workers are spawned once, on first use, and parked
    between calls instead of paying a [Domain.spawn]/[Domain.join]
    round-trip per call, and indices are handed out in dynamically
    claimed chunks so uneven bodies load-balance. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count], at least 1. *)

val parallel_for : ?domains:int -> int -> (int -> unit) -> unit
(** [parallel_for n body] runs [body i] for [i in 0..n-1] on up to
    [domains] domains of the shared pool (the calling domain works
    too).  [body] must only write to disjoint state per index.  Falls
    back to a sequential loop when [domains <= 1] or [n <= 1].  An
    exception raised by a body cancels the remaining chunks and is
    re-raised in the caller. *)

val warm_up : ?domains:int -> unit -> unit
(** Ensure the shared pool exists with a capacity of at least [domains]
    and that its [domains - 1] workers are spawned, so a subsequent
    timed call does not pay the one-off spawn cost. *)
