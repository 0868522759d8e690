(** One-dimensional root finding: the bracketing solvers behind
    {!Nonlinear_oracle}, the frozen Brent-over-Brent equal-finish solver
    of Section 2 (equal-finish-time equations [c·n + w·n^α = T] have no
    closed form for general [α]).  [Test_numerics] checks them on known
    roots. *)

exception No_bracket
(** Raised when the supplied interval does not bracket a root. *)

val bisect :
  ?tol:float -> ?max_iter:int -> f:(float -> float) -> lo:float -> hi:float -> unit -> float
(** Plain bisection.  Requires [f lo] and [f hi] of opposite signs
    (or one of them zero); raises [No_bracket] otherwise. *)

val brent :
  ?tol:float -> ?max_iter:int -> f:(float -> float) -> lo:float -> hi:float -> unit -> float
(** Brent's method: inverse-quadratic/secant steps guarded by bisection.
    Same bracketing requirement as {!bisect}, much faster convergence. *)

val newton :
  ?tol:float -> ?max_iter:int -> f:(float -> float) -> df:(float -> float) -> x0:float ->
  unit -> float option
(** Newton iteration from [x0]; [None] when it fails to converge. *)

val expand_bracket :
  f:(float -> float) -> lo:float -> hi:float -> ?grow:float -> ?max_iter:int -> unit ->
  (float * float) option
(** Geometrically grow [hi] until [lo, hi] brackets a root of [f]. *)
