type summary = { n : int; mean : float; stddev : float; min : float; max : float }

let mean a =
  if Array.length a = 0 then invalid_arg "Stats.mean: empty array";
  Kahan.sum a /. float_of_int (Array.length a)

let variance a =
  let n = Array.length a in
  if n < 2 then 0.
  else
    let m = mean a in
    Kahan.sum_by (fun x -> (x -. m) *. (x -. m)) a /. float_of_int (n - 1)

let stddev a = sqrt (variance a)

let summarize a =
  if Array.length a = 0 then invalid_arg "Stats.summarize: empty array";
  let lo = Array.fold_left Float.min a.(0) a in
  let hi = Array.fold_left Float.max a.(0) a in
  { n = Array.length a; mean = mean a; stddev = stddev a; min = lo; max = hi }
