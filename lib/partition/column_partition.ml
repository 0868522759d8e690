type assignment = { columns : int array array; cost : float }

let check_areas areas =
  if Array.length areas = 0 then invalid_arg "Column_partition: empty areas";
  Array.iter
    (fun a -> if a <= 0. || Float.is_nan a then invalid_arg "Column_partition: non-positive area")
    areas;
  let total = Numerics.Kahan.sum areas in
  if Float.abs (total -. 1.) > 1e-6 then
    invalid_arg (Printf.sprintf "Column_partition: areas sum to %.9g, expected 1" total)

(* Indices of [areas] sorted by non-increasing area (stable). *)
let sorted_indices areas =
  let idx = Array.init (Array.length areas) (fun i -> i) in
  Array.sort
    (fun i j ->
      match Float.compare areas.(j) areas.(i) with 0 -> Int.compare i j | c -> c)
    idx;
  idx

let prefix_sums areas order =
  let p = Array.length order in
  let prefix = Array.make (p + 1) 0. in
  for i = 0 to p - 1 do
    prefix.(i + 1) <- prefix.(i) +. areas.(order.(i))
  done;
  prefix

(* Generic DP over contiguous segments of the sorted order.
   [column_cost j i] is the cost of a column holding sorted positions
   [j..i-1]; [combine] folds column costs ((+.) for PERI-SUM,
   Float.max for PERI-MAX). *)
let solve ~areas ~column_cost ~combine ~neutral =
  check_areas areas;
  let order = sorted_indices areas in
  let p = Array.length order in
  let best = Array.make (p + 1) infinity in
  let cut = Array.make (p + 1) 0 in
  best.(0) <- neutral;
  for i = 1 to p do
    for j = 0 to i - 1 do
      let candidate = combine best.(j) (column_cost j i) in
      if candidate < best.(i) then begin
        best.(i) <- candidate;
        cut.(i) <- j
      end
    done
  done;
  (* Walk the cut positions back to recover the columns. *)
  let rec segments i acc = if i = 0 then acc else segments cut.(i) ((cut.(i), i) :: acc) in
  let columns =
    segments p []
    |> List.map (fun (j, i) -> Array.sub order j (i - j))
    |> Array.of_list
  in
  { columns; cost = best.(p) }

let peri_sum ~areas =
  let order = sorted_indices areas in
  let prefix = prefix_sums areas order in
  let column_cost j i =
    let width = prefix.(i) -. prefix.(j) in
    (float_of_int (i - j) *. width) +. 1.
  in
  solve ~areas ~column_cost ~combine:( +. ) ~neutral:0.

let peri_max ~areas =
  let order = sorted_indices areas in
  let prefix = prefix_sums areas order in
  let column_cost j i =
    let width = prefix.(i) -. prefix.(j) in
    (* The widest half-perimeter in the column comes from its largest
       area, i.e. the first element of the (descending) segment. *)
    width +. (areas.(order.(j)) /. width)
  in
  solve ~areas ~column_cost ~combine:Float.max ~neutral:0.

let to_layout ~areas assignment =
  let p = Array.length areas in
  let rects = Array.make p (Rect.make ~x:0. ~y:0. ~width:0. ~height:0.) in
  let ncols = Array.length assignment.columns in
  let x = ref 0. in
  Array.iteri
    (fun c column ->
      let width = Numerics.Kahan.sum_by (fun i -> areas.(i)) column in
      (* Snap the last column to the right edge to absorb rounding. *)
      let width = if c = ncols - 1 then 1. -. !x else width in
      let y = ref 0. in
      Array.iteri
        (fun r i ->
          let height =
            if r = Array.length column - 1 then 1. -. !y else areas.(i) /. width
          in
          rects.(i) <- Rect.make ~x:!x ~y:!y ~width ~height;
          y := !y +. height)
        column;
      x := !x +. width)
    assignment.columns;
  { Layout.rects }

let peri_sum_layout ~areas = to_layout ~areas (peri_sum ~areas)
