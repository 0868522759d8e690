(** Allocation of non-linear ([n^alpha], [n·log n]) divisible loads, the
    object of Section 2 and of the prior work [31-35] the paper rebuts,
    and of linear loads under the affine one-port model (per-message
    latency), the "more complicated communication model" of [9] that
    Section 3 says becomes meaningful again once a load is divisible.

    There is no closed form for general cost models, so the solver
    equalizes finish times numerically: the per-worker finish time is
    increasing and convex in its share, hence for a target makespan [T]
    each share [n_i(T)] is the unique root of the finish-time equation,
    found by Newton's method.  The makespan [T] solves
    [Σ n_i(T) = total], also by Newton's method: the derivative
    [dn_i/dT = 1/(c_i + w_i·work'(n_i))] (under [One_port] scaled by
    how much of [dT] the earlier transfers leave) comes free with the
    shares.  Both iterations keep a bracket and bisect whenever a step
    leaves it. *)

val worker_share :
  Platform.Processor.t -> Cost_model.t -> offset:float -> deadline:float -> float
(** Largest load a worker can finish by [deadline] when its
    communication starts at [offset]: the root [n] of
    [offset + c·n + w·work(n) = deadline] (plus latency when [n > 0]);
    0 when even an empty load cannot meet the deadline. *)

val equal_finish_allocation :
  ?order:int array ->
  Schedule.comm_model -> Platform.Star.t -> Cost_model.t -> total:float ->
  float array * float
(** Single-round allocation (platform order) and its makespan: every
    worker with a positive share finishes at the makespan.  Under
    [One_port] the master serves workers in [order] (a permutation of
    platform indices; {!Linear.one_port_order} by default; ignored under
    [Parallel]).

    Under [One_port] with latencies, taking part delays every later
    transfer, so the solver also picks the participants.  A fixed set,
    every member's latency charged, has one makespan.  It starts from
    the whole platform, dropping the most negative share until none is
    left (the classical affine DLT policy), and from the workers busy at
    the first root of the all-workers equation (a worker takes a share
    whenever it has time left, and only then pays its latency).  From
    each it drops one worker at a time, the removal that lowers the
    makespan most, while that lowers it by more than 1e-12 relative,
    and keeps the lower end: equal finish over a set that no single
    removal improves, never worse than either start, but a local
    optimum, not a proof of the best set.  The others get 0.

    Requires [total > 0]; raises [Invalid_argument] when [order] is not
    a permutation, or when the makespan iteration reaches a non-finite
    value or does not converge. *)

val quadratic_share :
  Platform.Processor.t -> offset:float -> deadline:float -> float
(** Closed form of {!worker_share} for the quadratic cost ([alpha = 2],
    the "second-order loads" of Suresh et al. [35]): the positive root
    of [c·n + w·n² = deadline - offset - latency],
    [n = (−c + √(c² + 4w·budget)) / 2w].  The test suite checks the
    numerical solver against this algebra. *)

val schedule :
  Schedule.comm_model -> Platform.Star.t -> Cost_model.t -> total:float -> Schedule.t
(** Executable schedule realizing {!equal_finish_allocation}. *)
