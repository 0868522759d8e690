let power_partial_fraction ~alpha ~p =
  if p <= 0 then invalid_arg "Fraction.power_partial_fraction: p must be > 0";
  if alpha < 1. then invalid_arg "Fraction.power_partial_fraction: alpha must be >= 1";
  float_of_int p ** (1. -. alpha)

let power_remaining_fraction ~alpha ~p = 1. -. power_partial_fraction ~alpha ~p

let sorting_gap ~n ~p =
  if n <= 1. then invalid_arg "Fraction.sorting_gap: n must be > 1";
  if p <= 0 then invalid_arg "Fraction.sorting_gap: p must be > 0";
  log (float_of_int p) /. log n

let done_fraction cost ~allocation ~total =
  if total <= 0. then invalid_arg "Fraction.done_fraction: total must be > 0";
  let partial = Numerics.Kahan.sum_by (Cost_model.work cost) allocation in
  partial /. Cost_model.work cost total
