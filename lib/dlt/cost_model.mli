(** Computation-cost models.

    A load of [n] data units costs [work model n] units of computation;
    a worker of speed [s_i = 1/w_i] executes it in [w_i · work model n]
    time.  The paper contrasts [Linear] (classical DLT), [Power alpha]
    with [alpha > 1] (Section 2: matrix product, outer product) and
    [N_log_n] (Section 3: sorting). *)

type t =
  | Linear
  | Power of float  (** [n ↦ n^alpha]; requires [alpha >= 1] *)
  | N_log_n  (** [n ↦ n·log₂ n], 0 for [n <= 1] *)

val work : t -> float -> float
(** Total computation units for [n >= 0] data units. *)

val work_derivative : t -> float -> float
(** d(work)/dn, used by Newton-based allocation solvers. *)

val is_linear : t -> bool

val alpha : t -> float option
(** The exponent for [Power]; [Some 1.] for [Linear]; [None] for
    [N_log_n]. *)

val of_alpha : float -> t
(** [Linear] when [alpha = 1.], otherwise [Power alpha].  Raises
    [Invalid_argument] when [alpha < 1]. *)
