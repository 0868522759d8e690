(** Allocation of non-linear ([n^alpha], [n·log n]) divisible loads, the
    object of Section 2 and of the prior work [31-35] the paper rebuts.

    There is no closed form for general cost models, so the solvers
    equalize finish times numerically: the per-worker finish time is
    increasing and convex in its share, hence for a target makespan [T]
    each share [n_i(T)] is the unique root of the finish-time equation,
    found by Newton's method.  The optimal [T] solves
    [Σ n_i(T) = total], also by Newton's method: the derivative
    [dn_i/dT = 1/(c_i + w_i·work'(n_i))] (under [One_port] scaled by
    how much of [dT] the earlier transfers leave) comes free with the
    shares.  Both iterations keep a bracket and bisect whenever a step
    leaves it. *)

val worker_share :
  Schedule.comm_model ->
  Platform.Processor.t ->
  Cost_model.t ->
  offset:float ->
  deadline:float ->
  float
(** Largest load a worker can finish by [deadline] when its
    communication starts at [offset]: the root [n] of
    [offset + c·n + w·work(n) = deadline] (plus latency when [n > 0]);
    0 when even an empty load cannot meet the deadline. *)

val equal_finish_allocation :
  Schedule.comm_model -> Platform.Star.t -> Cost_model.t -> total:float ->
  float array * float
(** Optimal single-round allocation (platform order) and its makespan.
    Under [One_port], the master serves workers in
    {!Linear.one_port_order} and the shares are solved sequentially for
    each candidate makespan.  Requires [total > 0]; raises
    [Invalid_argument] when the makespan iteration reaches a non-finite
    value or does not converge. *)

val quadratic_share :
  Platform.Processor.t -> offset:float -> deadline:float -> float
(** Closed form of {!worker_share} for the quadratic cost ([alpha = 2],
    the "second-order loads" of Suresh et al. [35]): the positive root
    of [c·n + w·n² = deadline - offset - latency],
    [n = (−c + √(c² + 4w·budget)) / 2w].  The test suite checks the
    numerical solver against this algebra. *)

val homogeneous_allocation : p:int -> total:float -> float array
(** The trivial optimal split of Section 2: [total/p] everywhere. *)

val homogeneous_makespan :
  c:float -> w:float -> Cost_model.t -> p:int -> total:float -> float
(** [(N/P)·c + w·work(N/P)] — the finish time of the first (and only)
    round on a homogeneous platform with parallel communications. *)

val schedule :
  Schedule.comm_model -> Platform.Star.t -> Cost_model.t -> total:float -> Schedule.t
(** Executable schedule realizing {!equal_finish_allocation}. *)
