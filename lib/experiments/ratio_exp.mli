(** Experiment E3 (paper Section 4.1.3): the Commhom/Commhet ratio
    bound.

    On the half-slow / half-[k]-fast platform the paper proves
    [ρ ≥ (1+k)/(1+√k) ≥ √k - 1]; the driver measures the actual ratio
    on that platform family and on random platforms, checking the
    general bound [ρ ≥ (4/7)·Σs/(√s₁·Σ√s)]. *)

type bimodal_row = {
  factor : float;  (** [k] *)
  p : int;
  measured_rho : float;  (** [Commhom / Commhet], measured *)
  hom_over_lb : float;
      (** [Commhom / LBComm]: the quantity the paper's closed form
          bounds (its analysis takes [Commhet ≈ LBComm]) *)
  bound : float;  (** [(1+k)/(1+√k)] *)
  sqrt_bound : float;  (** [√k - 1] *)
}

type general_row = {
  p : int;
  profile : string;
  measured_rho : float;
  general_bound : float;  (** [(4/7)·Σs/(√s₁·Σ√s)] *)
}

val run_bimodal : ?p:int -> ?factors:float list -> unit -> bimodal_row list

val run_general :
  ?processor_counts:int list ->
  ?trials:int ->
  ?seed:int ->
  ?domains:int ->
  unit ->
  general_row list
(** Trials run on the shared domain pool with pre-split per-trial RNGs;
    output is identical at any [domains]. *)

val bimodal_table : bimodal_row list -> Report.t
val general_table : general_row list -> Report.t
