(** Dispatch-order analysis for one-port DLT.

    A classical result for latency-free linear loads is that the
    optimal makespan does not depend on the order in which the master
    serves the workers; with per-message latencies (the affine model)
    order matters, and the best and worst orders are found by brute
    force on small platforms. *)

type evaluation = { order : int array; makespan : float }

val makespan : Platform.Star.t -> order:int array -> total:float -> float
(** Equal-finish makespan of a linear load when serving in [order],
    participants included (see {!Nonlinear.equal_finish_allocation}). *)

val identity_order : int -> int array

val best_order : Platform.Star.t -> total:float -> evaluation
(** Exhaustive search over all [p!] orders; raises [Invalid_argument]
    for [p > 9]. *)

val worst_order : Platform.Star.t -> total:float -> evaluation

val order_spread : Platform.Star.t -> total:float -> float
(** [worst/best - 1]: how much the dispatch order matters on this
    platform.  0 (up to numerical noise) for latency-free linear
    loads. *)
