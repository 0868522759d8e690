(** [Dlt.Affine.solve] as it stood before participant selection moved
    into [Dlt.Nonlinear.equal_finish_allocation]: linear DLT under the
    affine one-port model (sending [n] units to worker [i] costs
    [L_i + c_i·n], computation costs [w_i·n]), solved per participant
    set by the closed-form equal-finish recurrence, with the
    negative-share drop and the greedy descent over sets.

    Frozen test oracle: [Test_dlt_extensions] checks that the engine
    picks the same participants and makespan.  Do not optimise. *)

type solution = {
  allocation : float array;
      (** data per worker in platform order; 0 for dropped workers *)
  makespan : float;
  participants : int list;  (** served participants, in serving order *)
}

val solve : ?order:int array -> Platform.Star.t -> total:float -> solution
(** Equal-finish-time solution among participating workers, served in
    [order] (decreasing bandwidth by default).  Workers whose share
    would be negative are dropped (most negative first), and the
    participant set is then improved by greedy descent: any worker
    whose removal lowers the makespan is dropped too.  Requires
    [total > 0] and [order] to be a permutation. *)
