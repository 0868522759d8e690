(** Speed-profile generators matching the evaluation of Section 4.3:
    homogeneous, uniform on [\[1, 100\]] and log-normal(0, 1), plus the
    bimodal "half slow, half k-times faster" platform of Section 4.1.3
    and a Pareto profile used for stress tests. *)

type t =
  | Homogeneous of float  (** all workers at this speed *)
  | Uniform of { lo : float; hi : float }
  | Lognormal of { mu : float; sigma : float }
  | Bimodal of { slow : float; factor : float }
      (** first half at [slow], second half at [slow *. factor] *)
  | Pareto of { scale : float; shape : float }

val paper_homogeneous : t
(** Speed 1 everywhere — Figure 4(a). *)

val paper_uniform : t
(** Uniform on [\[1, 100\]] — Figure 4(b). *)

val paper_lognormal : t
(** Log-normal with [mu = 0], [sigma = 1] — Figure 4(c). *)

val generate :
  ?bandwidth:float -> ?latency:float -> Numerics.Rng.t -> p:int -> t -> Star.t
(** Draw a [p]-worker platform.  Raises [Invalid_argument] when
    [p <= 0]. *)

val name : t -> string
val of_name : string -> t option
(** Inverse of {!name} for the paper's three profiles plus ["bimodal"];
    used by the CLI. *)
