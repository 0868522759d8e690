type t = { x : float; y : float; width : float; height : float }

let make ~x ~y ~width ~height =
  if width < 0. || height < 0. then invalid_arg "Rect.make: negative dimensions";
  { x; y; width; height }

let area r = r.width *. r.height
let half_perimeter r = r.width +. r.height
let x_max r = r.x +. r.width
let y_max r = r.y +. r.height

let contains r ~x ~y = x >= r.x && x < x_max r && y >= r.y && y < y_max r

let intersection_area a b =
  let dx = Float.min (x_max a) (x_max b) -. Float.max a.x b.x in
  let dy = Float.min (y_max a) (y_max b) -. Float.max a.y b.y in
  if dx > 0. && dy > 0. then dx *. dy else 0.

let overlaps ?(tol = 1e-12) a b = intersection_area a b > tol
