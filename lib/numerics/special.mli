(** Special functions needed by the statistical checks: error function
    and normal CDF/quantile.  Implementations are classical
    rational/series approximations with documented absolute error. *)

val erf : float -> float
(** Abramowitz-Stegun 7.1.26 rational approximation; absolute error
    below 1.5e-7. *)

val normal_cdf : ?mu:float -> ?sigma:float -> float -> float
(** Φ((x-mu)/sigma). *)

val normal_quantile : float -> float
(** Inverse standard-normal CDF (Acklam's algorithm, refined by one
    Newton step; |error| < 1e-9).  Raises [Invalid_argument] outside
    (0, 1). *)
