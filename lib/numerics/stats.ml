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

let quantile a q =
  if Array.length a = 0 then invalid_arg "Stats.quantile: empty array";
  if q < 0. || q > 1. then invalid_arg "Stats.quantile: q out of [0,1]";
  let sorted = Array.copy a in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = int_of_float (Float.ceil pos) in
  if lo = hi then sorted.(lo)
  else
    let frac = pos -. float_of_int lo in
    ((1. -. frac) *. sorted.(lo)) +. (frac *. sorted.(hi))

let median a = quantile a 0.5
let coefficient_of_variation a = stddev a /. mean a

module Online = struct
  type t = { mutable n : int; mutable mean : float; mutable m2 : float }

  let create () = { n = 0; mean = 0.; m2 = 0. }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean))

  let count t = t.n
  let mean t = t.mean
  let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)
  let stddev t = sqrt (variance t)

  let merge a b =
    if a.n = 0 then { n = b.n; mean = b.mean; m2 = b.m2 }
    else if b.n = 0 then { n = a.n; mean = a.mean; m2 = a.m2 }
    else begin
      let n = a.n + b.n in
      let delta = b.mean -. a.mean in
      let nf = float_of_int n in
      {
        n;
        mean = a.mean +. (delta *. float_of_int b.n /. nf);
        m2 =
          a.m2 +. b.m2
          +. (delta *. delta *. float_of_int a.n *. float_of_int b.n /. nf);
      }
    end
end
