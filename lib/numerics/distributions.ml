let uniform rng ~lo ~hi = Rng.uniform rng lo hi

let gaussian rng ~mu ~sigma =
  (* Box-Muller; we draw u1 away from 0 to keep log finite. *)
  let rec nonzero () =
    let u = Rng.float rng in
    if u > 0. then u else nonzero ()
  in
  let u1 = nonzero () and u2 = Rng.float rng in
  let r = sqrt (-2. *. log u1) in
  mu +. (sigma *. r *. cos (2. *. Float.pi *. u2))

let lognormal rng ~mu ~sigma = exp (gaussian rng ~mu ~sigma)

let pareto rng ~scale ~shape =
  assert (scale > 0. && shape > 0.);
  let u = 1. -. Rng.float rng in
  scale /. (u ** (1. /. shape))
