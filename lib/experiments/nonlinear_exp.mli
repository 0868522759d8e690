(** Experiment E1 (paper Section 2): the fraction of an [N^alpha]
    workload performed by one divisible-load round.

    For each [(alpha, p)] the driver builds the optimal single-round
    allocation with the numerical solver, measures
    [Σ work(n_i)/work(N)], and compares it with the closed form
    [p^(1-alpha)] (exact on homogeneous platforms).  It also reports the
    heterogeneous measured fraction, which the paper's asymptotic
    argument covers qualitatively. *)

type row = {
  alpha : float;
  p : int;
  predicted : float;  (** [p^(1-alpha)] *)
  measured_homogeneous : float;
  measured_heterogeneous : float;  (** uniform-speed platform, same p *)
  makespan : float;  (** homogeneous equal-finish makespan *)
}

val run :
  ?alphas:float list ->
  ?processor_counts:int list ->
  ?total:float ->
  ?seed:int ->
  unit ->
  row list

val table : row list -> Report.t
