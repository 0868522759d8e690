module Rng = Numerics.Rng
module Distributions = Numerics.Distributions

type t =
  | Homogeneous of float
  | Uniform of { lo : float; hi : float }
  | Lognormal of { mu : float; sigma : float }
  | Bimodal of { slow : float; factor : float }
  | Pareto of { scale : float; shape : float }

let paper_homogeneous = Homogeneous 1.
let paper_uniform = Uniform { lo = 1.; hi = 100. }
let paper_lognormal = Lognormal { mu = 0.; sigma = 1. }

let draw_speed rng = function
  | Homogeneous s -> s
  | Uniform { lo; hi } -> Distributions.uniform rng ~lo ~hi
  | Lognormal { mu; sigma } -> Distributions.lognormal rng ~mu ~sigma
  | Bimodal _ -> assert false (* handled positionally in [generate] *)
  | Pareto { scale; shape } -> Distributions.pareto rng ~scale ~shape

let generate ?bandwidth ?latency rng ~p profile =
  if p <= 0 then invalid_arg "Profiles.generate: p must be positive";
  let speed_of_rank i =
    match profile with
    | Bimodal { slow; factor } -> if i < (p + 1) / 2 then slow else slow *. factor
    | Homogeneous _ | Uniform _ | Lognormal _ | Pareto _ -> draw_speed rng profile
  in
  let speeds = List.init p speed_of_rank in
  Star.of_speeds ?bandwidth ?latency speeds

let name = function
  | Homogeneous _ -> "homogeneous"
  | Uniform _ -> "uniform"
  | Lognormal _ -> "lognormal"
  | Bimodal _ -> "bimodal"
  | Pareto _ -> "pareto"

let of_name = function
  | "homogeneous" -> Some paper_homogeneous
  | "uniform" -> Some paper_uniform
  | "lognormal" -> Some paper_lognormal
  | "bimodal" -> Some (Bimodal { slow = 1.; factor = 10. })
  | _ -> None
