type t = { rects : Rect.t array }

let areas t = Array.map Rect.area t.rects
let sum_half_perimeters t = Numerics.Kahan.sum_by Rect.half_perimeter t.rects

let communication_volume t ~n = n *. sum_half_perimeters t

let validate ?(tol = 1e-9) ?expected_areas t =
  let problems = ref [] in
  let fail fmt = Format.kasprintf (fun m -> problems := m :: !problems) fmt in
  Array.iteri
    (fun i r ->
      if r.Rect.x < -.tol || r.Rect.y < -.tol
         || Rect.x_max r > 1. +. tol || Rect.y_max r > 1. +. tol
      then fail "rect %d exceeds the unit square" i)
    t.rects;
  let p = Array.length t.rects in
  for i = 0 to p - 1 do
    for j = i + 1 to p - 1 do
      if Rect.overlaps ~tol t.rects.(i) t.rects.(j) then fail "rects %d and %d overlap" i j
    done
  done;
  let covered = Numerics.Kahan.sum (areas t) in
  if Float.abs (covered -. 1.) > tol *. float_of_int (max 1 p) then
    fail "areas sum to %.12g, expected 1" covered;
  (match expected_areas with
  | None -> ()
  | Some expected ->
      if Array.length expected <> p then fail "expected_areas length mismatch"
      else
        Array.iteri
          (fun i a ->
            let actual = Rect.area t.rects.(i) in
            if Float.abs (actual -. a) > tol then
              fail "rect %d has area %.12g, prescribed %.12g" i actual a)
          expected);
  match !problems with [] -> Ok () | msgs -> Error (String.concat "; " (List.rev msgs))

let markers = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

let render ?(width = 48) ?(height = 24) t =
  let buf = Buffer.create ((width + 1) * height) in
  for row = 0 to height - 1 do
    for col = 0 to width - 1 do
      let x = (float_of_int col +. 0.5) /. float_of_int width in
      let y = (float_of_int row +. 0.5) /. float_of_int height in
      let owner = ref '?' in
      Array.iteri
        (fun i r -> if Rect.contains r ~x ~y then owner := markers.[i mod String.length markers])
        t.rects;
      Buffer.add_char buf !owner
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf
