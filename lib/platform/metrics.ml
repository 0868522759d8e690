module Kahan = Numerics.Kahan

let hom_over_het_bound star =
  let speeds = Star.speeds star in
  let s1 = (Star.slowest star).Processor.speed in
  let sum = Kahan.sum speeds in
  let sum_sqrt = Kahan.sum_by sqrt speeds in
  4. /. 7. *. sum /. (sqrt s1 *. sum_sqrt)

let bimodal_rho_bound ~factor = (1. +. factor) /. (1. +. sqrt factor)
