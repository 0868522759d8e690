(* Deterministic sampling for bounded exports.

   [every k] is systematic 1-in-k sampling, replayable so sampled
   artifacts are byte-identical across runs and domain counts.  Zero
   allocation per decision — safe to consult in instrumented hot loops.

   Nothing is dropped silently: the sampler exposes how many elements
   were seen and how many were kept, and exporters are expected to write
   those numbers into the artifact. *)

type every = { k : int; mutable seen : int; mutable kept : int }

let every k =
  if k < 1 then invalid_arg "Sample.every: k must be >= 1";
  { k; seen = 0; kept = 0 }

let[@inline] keep e =
  let take = e.seen mod e.k = 0 in
  e.seen <- e.seen + 1;
  if take then e.kept <- e.kept + 1;
  take

let kept e = e.kept

let stride ~budget n =
  if budget < 1 then invalid_arg "Sample.stride: budget must be >= 1";
  if n <= budget then 1 else (n + budget - 1) / budget
