(** Random variate generation for the speed profiles used in the paper's
    evaluation (Section 4.3) and for workload generation. *)

val uniform : Rng.t -> lo:float -> hi:float -> float
(** Uniform on [\[lo, hi)]. *)

val gaussian : Rng.t -> mu:float -> sigma:float -> float
(** Normal variate by the Box-Muller transform. *)

val lognormal : Rng.t -> mu:float -> sigma:float -> float
(** [exp] of a Gaussian; the paper uses [mu = 0], [sigma = 1]. *)

val pareto : Rng.t -> scale:float -> shape:float -> float
(** Pareto with minimum [scale] and tail index [shape]. *)
