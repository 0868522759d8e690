type interval = { lo : float; hi : float; level : float }

let of_summary ?(level = 0.95) (s : Stats.summary) =
  if s.Stats.n < 2 then invalid_arg "Confidence: at least 2 samples required";
  if level <= 0. || level >= 1. then invalid_arg "Confidence: level must be in (0,1)";
  let z = Special.normal_quantile (1. -. ((1. -. level) /. 2.)) in
  let half = z *. s.Stats.stddev /. sqrt (float_of_int s.Stats.n) in
  { lo = s.Stats.mean -. half; hi = s.Stats.mean +. half; level }
