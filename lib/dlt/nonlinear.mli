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
    leaves it.

    The makespan iteration is inexact while its steps are long: each
    share takes one Newton step from its warm start (its previous value
    moved along [dn_i/dT]; under [Parallel] the first start is the
    compute-only equal finish behind the lower bound), not a converged
    solve, until a step is within 1e-5 of its iterate.  Exact sweeps
    then finish the solve to the same tolerances; the fixed participant
    sets of the selection below are solved by exact sweeps throughout.
    The bracket stays sound because the finish time is convex: one
    Newton step from any positive share lands at or above its root, so
    a coarse [Σ n_i(T) - total] is at or above the true one.  Under
    [Parallel] a coarse value [<= 0] still proves [T] is below the
    makespan; under [One_port] a larger share delays the later
    transfers, so a coarse value moves neither end.  A coarse step that
    leaves the bracket ends the coarse phase. *)

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

(** Internals the test suite states laws about; no program uses them. *)
module For_tests : sig
  val share_step : Cost_model.t -> c:float -> w:float -> budget:float -> float -> float
  (** [share_step cost ~c ~w ~budget n] is what a coarse makespan iterate
      gives a share whose warm start is [n > 0]: one Newton step on
      [c·n + w·work(n) = budget], capped at the share's upper bound. *)

  val fixed_set_residual :
    Platform.Processor.t array -> Cost_model.t -> total:float -> float -> float
  (** [fixed_set_residual procs cost ~total t] is [Σ n_i(t) - total] for
      the fixed participant set [procs], served in that order under
      [One_port], every member's latency charged (a member with no
      budget takes a negative share), with every share solved exactly:
      the function whose root is the set's makespan. *)
end
