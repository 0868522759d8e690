module Rng = Numerics.Rng

let default_oversampling ~n =
  let l = log (float_of_int (max 2 n)) /. log 2. in
  max 1 (int_of_float (Float.round (l *. l)))

(* A plain fill loop into an unboxed float array: [Array.init] routes
   every drawn key through the closure's boxed return value. *)
let take_sample_floats rng (keys : float array) sample count =
  let n = Array.length keys in
  for i = 0 to count - 1 do
    sample.(i) <- keys.(Rng.int rng n)
  done

let choose_splitters_floats rng (keys : float array) ~p ~s =
  if p < 1 then invalid_arg "Sample_sort.choose_splitters_floats: p must be >= 1";
  if s < 1 then invalid_arg "Sample_sort.choose_splitters_floats: s must be >= 1";
  if Array.length keys = 0 then invalid_arg "Sample_sort.choose_splitters_floats: empty input";
  (* The sample is sorted in place by the monomorphic segment sort —
     [Array.sort Float.compare] boxes both floats of every comparison,
     which made phase 1 allocate more than the scatter it feeds. *)
  let sample = Array.make (s * p) 0. in
  take_sample_floats rng keys sample (s * p);
  Kernels.Seg_sort.sort_floats sample ~lo:0 ~len:(s * p);
  Array.init (p - 1) (fun j -> sample.((j + 1) * s))

let weighted_splitters_floats rng (keys : float array) ~weights ~s =
  let p = Array.length weights in
  if p < 1 then invalid_arg "Sample_sort.weighted_splitters_floats: empty weights";
  if s < 1 then invalid_arg "Sample_sort.weighted_splitters_floats: s must be >= 1";
  if Array.length keys = 0 then
    invalid_arg "Sample_sort.weighted_splitters_floats: empty input";
  Array.iter
    (fun w ->
      if w <= 0. || Float.is_nan w then
        invalid_arg "Sample_sort.weighted_splitters_floats: bad weight")
    weights;
  let total = Numerics.Kahan.sum weights in
  let sample_size = s * p in
  let sample = Array.make sample_size 0. in
  take_sample_floats rng keys sample sample_size;
  Kernels.Seg_sort.sort_floats sample ~lo:0 ~len:sample_size;
  let cumulative = ref 0. in
  Array.init (p - 1) (fun j ->
      cumulative := !cumulative +. weights.(j);
      let rank =
        int_of_float (Float.round (!cumulative /. total *. float_of_int sample_size))
      in
      sample.(min (max rank 0) (sample_size - 1)))

let max_bucket_ratio sizes =
  let total = Array.fold_left ( + ) 0 sizes in
  if total = 0 then 0.
  else
    float_of_int (Array.fold_left max 0 sizes)
    /. (float_of_int total /. float_of_int (Array.length sizes))

let theoretical_envelope ~n =
  1. +. ((1. /. log (float_of_int (max 3 n))) ** (1. /. 3.))
