(** Summary statistics for experiment reporting (mean ± stddev error bars
    of Figure 4, concentration measurements of Section 3). *)

type summary = {
  n : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1 denominator) *)
  min : float;
  max : float;
}

val mean : float array -> float
val variance : float array -> float
(** Sample variance; 0 for arrays of length < 2. *)

val stddev : float array -> float
val summarize : float array -> summary
(** Raises [Invalid_argument] on an empty array. *)

val median : float array -> float
val quantile : float array -> float -> float
(** [quantile a q] with [0 <= q <= 1], linear interpolation between order
    statistics.  Does not mutate [a]. *)

val coefficient_of_variation : float array -> float
(** stddev / mean; a heterogeneity measure for speed vectors. *)

(** Streaming (single-pass, numerically stable) moments — Welford's
    algorithm; used where experiment series are too long to buffer. *)
module Online : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** 0 before any sample. *)

  val variance : t -> float
  (** Sample variance (n-1); 0 with fewer than 2 samples. *)

  val stddev : t -> float

  val merge : t -> t -> t
  (** Combine two independent accumulators (Chan's parallel update). *)
end
