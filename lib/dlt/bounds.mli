(** Makespan lower bounds and efficiency measures used to normalize the
    experiments. *)

val ideal_makespan : Platform.Star.t -> Cost_model.t -> total:float -> float
(** Perfect-parallelism bound: [work(total) / Σ s_i] — communication is
    free and the sequential work parallelizes with no loss.  For
    super-linear models this is optimistic (splitting reduces the work
    actually needed), which is exactly why the DLT round looks so cheap
    in Section 2; still the right normalizer for efficiency plots. *)

val divisible_ideal_makespan :
  Platform.Star.t -> Cost_model.t -> total:float -> float
(** Equal-finish-time compute-only bound for a *divisible* non-linear
    load: minimize [max_i w_i·work(n_i)] s.t. [Σ n_i = total] — i.e.
    {!Nonlinear.equal_finish_allocation} with free communication.
    Coincides with {!ideal_makespan} for linear loads. *)
