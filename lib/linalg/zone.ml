module Apportion = Numerics.Apportion

type t = { row0 : int; rows : int; col0 : int; cols : int }

let half_perimeter z = z.rows + z.cols

let of_column_assignment ~areas assignment ~n =
  if n < 1 then invalid_arg "Zone.of_column_assignment: n must be >= 1";
  let columns = assignment.Partition.Column_partition.columns in
  let column_weight column = Numerics.Kahan.sum_by (fun i -> areas.(i)) column in
  let widths =
    Apportion.largest_remainder ~weights:(Array.map column_weight columns) ~total:n
  in
  let zones = Array.make (Array.length areas) { row0 = 0; rows = 0; col0 = 0; cols = 0 } in
  let col0 = ref 0 in
  Array.iteri
    (fun c column ->
      let cols = widths.(c) in
      let heights =
        Apportion.largest_remainder
          ~weights:(Array.map (fun i -> areas.(i)) column)
          ~total:n
      in
      let row0 = ref 0 in
      Array.iteri
        (fun r i ->
          zones.(i) <- { row0 = !row0; rows = heights.(r); col0 = !col0; cols };
          row0 := !row0 + heights.(r))
        column;
      col0 := !col0 + cols)
    columns;
  zones

let for_platform star ~n =
  let areas = Platform.Star.relative_speeds star in
  of_column_assignment ~areas (Partition.Column_partition.peri_sum ~areas) ~n

let most_square_factorization p =
  let rec search q = if p mod q = 0 then (q, p / q) else search (q - 1) in
  search (int_of_float (sqrt (float_of_int p)))

let uniform_grid ~p ~n =
  if p < 1 then invalid_arg "Zone.uniform_grid: p must be >= 1";
  let q, r = most_square_factorization p in
  let row_edges = Apportion.largest_remainder ~weights:(Array.make q 1.) ~total:n in
  let col_edges = Apportion.largest_remainder ~weights:(Array.make r 1.) ~total:n in
  let zones = ref [] in
  let row0 = ref 0 in
  Array.iter
    (fun rows ->
      let col0 = ref 0 in
      Array.iter
        (fun cols ->
          zones := { row0 = !row0; rows; col0 = !col0; cols } :: !zones;
          col0 := !col0 + cols)
        col_edges;
      row0 := !row0 + rows)
    row_edges;
  Array.of_list (List.rev !zones)

let validate_tiling ~n zones =
  let cover = Array.make_matrix n n 0 in
  Array.iter
    (fun z ->
      for row = z.row0 to z.row0 + z.rows - 1 do
        for col = z.col0 to z.col0 + z.cols - 1 do
          if row >= 0 && row < n && col >= 0 && col < n then
            cover.(row).(col) <- cover.(row).(col) + 1
        done
      done)
    zones;
  let missing = ref 0 and duplicated = ref 0 in
  for row = 0 to n - 1 do
    for col = 0 to n - 1 do
      if cover.(row).(col) = 0 then incr missing
      else if cover.(row).(col) > 1 then incr duplicated
    done
  done;
  let out_of_bounds =
    Array.exists
      (fun z -> z.row0 < 0 || z.col0 < 0 || z.row0 + z.rows > n || z.col0 + z.cols > n)
      zones
  in
  if !missing = 0 && !duplicated = 0 && not out_of_bounds then Ok ()
  else
    Error
      (Printf.sprintf "tiling invalid: %d cells uncovered, %d covered twice%s" !missing
         !duplicated
         (if out_of_bounds then ", zones out of bounds" else ""))

let half_perimeter_sum zones =
  Array.fold_left (fun acc z -> acc + half_perimeter z) 0 zones
