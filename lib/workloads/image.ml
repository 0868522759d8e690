module Matrix = Linalg.Matrix
module Star = Platform.Star
module Processor = Platform.Processor

type kernel = float array array

let check_kernel kernel =
  let size = Array.length kernel in
  if size = 0 || size mod 2 = 0 then invalid_arg "Image: kernel side must be odd";
  Array.iter
    (fun row -> if Array.length row <> size then invalid_arg "Image: kernel must be square")
    kernel;
  size / 2

let box_blur size =
  if size <= 0 || size mod 2 = 0 then invalid_arg "Image.box_blur: size must be odd";
  let w = 1. /. float_of_int (size * size) in
  Array.make_matrix size size w

(* Convolve rows [row0, row0+rows) of [image], reading neighbours with
   zero padding; writes into the same rows of [target]. *)
let convolve_rows image ~kernel ~radius ~row0 ~rows target =
  let height = Matrix.rows image and width = Matrix.cols image in
  for i = row0 to row0 + rows - 1 do
    for j = 0 to width - 1 do
      let acc = ref 0. in
      for di = -radius to radius do
        for dj = -radius to radius do
          let si = i + di and sj = j + dj in
          if si >= 0 && si < height && sj >= 0 && sj < width then
            acc :=
              !acc
              +. (kernel.(di + radius).(dj + radius) *. Matrix.get image si sj)
        done
      done;
      Matrix.set target i j !acc
    done
  done

type distribution = {
  bands : (int * int) array;
  halo_rows : int;
  communication : float;
  makespan : float;
  result : Matrix.t;
}

let distribute star image ~kernel =
  let radius = check_kernel kernel in
  let height = Matrix.rows image and width = Matrix.cols image in
  let p = Star.size star in
  if height < p then invalid_arg "Image.distribute: fewer rows than workers";
  (* Linear DLT on the row count: the cost of a band is ∝ its pixels. *)
  let rows_per_worker =
    Numerics.Apportion.largest_remainder
      ~weights:(Dlt.Linear.parallel_allocation star ~total:(float_of_int height))
      ~total:height
  in
  let workers = Star.workers star in
  let result = Matrix.create ~rows:height ~cols:width in
  let bands = Array.make p (0, 0) in
  let halo_rows = ref 0 in
  let communication = ref 0. in
  let makespan = ref 0. in
  let row0 = ref 0 in
  Array.iteri
    (fun i rows ->
      bands.(i) <- (!row0, rows);
      if rows > 0 then begin
        let halo_top = min radius !row0 in
        let halo_bottom = min radius (height - (!row0 + rows)) in
        halo_rows := !halo_rows + halo_top + halo_bottom;
        let shipped = float_of_int ((rows + halo_top + halo_bottom) * width) in
        communication := !communication +. shipped;
        let proc = workers.(i) in
        let finish =
          Processor.transfer_time proc ~data:shipped
          +. Processor.compute_time proc ~work:(float_of_int (rows * width))
        in
        if finish > !makespan then makespan := finish;
        convolve_rows image ~kernel ~radius ~row0:!row0 ~rows result
      end;
      row0 := !row0 + rows)
    rows_per_worker;
  {
    bands;
    halo_rows = !halo_rows;
    communication = !communication;
    makespan = !makespan;
    result;
  }
