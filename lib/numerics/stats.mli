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
