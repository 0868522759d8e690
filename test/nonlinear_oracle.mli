(** [Dlt.Nonlinear.equal_finish_allocation] as it stood before the
    safeguarded-Newton solver: an outer Brent (tol 1e-13) over the
    makespan, and for every evaluation an [expand_bracket] plus an inner
    Brent per worker.

    Frozen test oracle: [Test_dlt_nonlinear] checks that the Newton
    solver agrees with it on makespans and shares.  Slow and simple on
    purpose; do not optimise. *)

val equal_finish_allocation :
  Dlt.Schedule.comm_model -> Platform.Star.t -> Dlt.Cost_model.t -> total:float ->
  float array * float
(** Allocation in platform order and its makespan; raises
    [Invalid_argument] when [total <= 0] or the makespan cannot be
    bracketed. *)
