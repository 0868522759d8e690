type t = { mutable sum : float; mutable compensation : float }

let create () = { sum = 0.; compensation = 0. }

(* Neumaier's variant: also correct when the addend dominates the sum. *)
let add t x =
  let s = t.sum +. x in
  if Float.abs t.sum >= Float.abs x then
    t.compensation <- t.compensation +. (t.sum -. s +. x)
  else t.compensation <- t.compensation +. (x -. s +. t.sum);
  t.sum <- s

let total t = t.sum +. t.compensation

let sum a =
  let t = create () in
  Array.iter (add t) a;
  total t

let sum_by f a =
  let t = create () in
  Array.iter (fun x -> add t (f x)) a;
  total t
