type t = { id : int; speed : float; bandwidth : float; latency : float }

let make ?(bandwidth = 1.) ?(latency = 0.) ~id ~speed () =
  if speed <= 0. then invalid_arg "Processor.make: speed must be positive";
  if bandwidth <= 0. then invalid_arg "Processor.make: bandwidth must be positive";
  if latency < 0. then invalid_arg "Processor.make: latency must be non-negative";
  { id; speed; bandwidth; latency }

let w p = 1. /. p.speed
let c p = 1. /. p.bandwidth
let compute_time p ~work = work /. p.speed
let transfer_time p ~data = if data > 0. then p.latency +. (data /. p.bandwidth) else 0.

let pp ppf p =
  Format.fprintf ppf "P%d(s=%.4g, bw=%.4g, lat=%.4g)" p.id p.speed p.bandwidth p.latency
