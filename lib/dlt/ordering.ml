module Star = Platform.Star

type evaluation = { order : int array; makespan : float }

let makespan star ~order ~total =
  snd (Nonlinear.equal_finish_allocation ~order Schedule.One_port star Cost_model.Linear ~total)

let identity_order p = Array.init p (fun i -> i)

(* Fold [f] over every permutation of [order] (Heap's algorithm). *)
let iter_permutations order f =
  let a = Array.copy order in
  let n = Array.length a in
  let swap i j =
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  in
  let rec generate k =
    if k <= 1 then f a
    else begin
      for i = 0 to k - 1 do
        generate (k - 1);
        if k mod 2 = 0 then swap i (k - 1) else swap 0 (k - 1)
      done
    end
  in
  generate n

let extremal_order star ~total better =
  let p = Star.size star in
  if p > 9 then invalid_arg "Ordering: exhaustive search limited to p <= 9";
  let best = ref { order = identity_order p; makespan = makespan star ~order:(identity_order p) ~total } in
  iter_permutations (identity_order p) (fun order ->
      let span = makespan star ~order ~total in
      if better span !best.makespan then best := { order = Array.copy order; makespan = span });
  !best

let best_order star ~total = extremal_order star ~total ( < )
let worst_order star ~total = extremal_order star ~total ( > )

let order_spread star ~total =
  let best = best_order star ~total in
  let worst = worst_order star ~total in
  (worst.makespan /. best.makespan) -. 1.
