(** Closed-form bounds on the Hom/Het communication ratio (Section
    4.1.3), which relate the measured ratios of Figure 4 to how skewed
    the speed vector is. *)

val hom_over_het_bound : Star.t -> float
(** The ratio lower bound of Section 4.1.3:
    [(4/7) · Σ s_i / (√s_1 · Σ √s_i)]. *)

val bimodal_rho_bound : factor:float -> float
(** [(1+k)/(1+√k)] — the closed-form bound for the half-slow /
    half-[k]-fast platform. *)
