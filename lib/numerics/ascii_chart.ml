type series = { label : string; points : (float * float) array }

let markers = "0123456789abcdefghijklmnopqrstuvwxyz"

let bounds all =
  let xmin = ref infinity and xmax = ref neg_infinity in
  let ymin = ref infinity and ymax = ref neg_infinity in
  List.iter
    (fun s ->
      Array.iter
        (fun (x, y) ->
          if x < !xmin then xmin := x;
          if x > !xmax then xmax := x;
          if y < !ymin then ymin := y;
          if y > !ymax then ymax := y)
        s.points)
    all;
  (!xmin, !xmax, !ymin, !ymax)

let render ?(width = 64) ?(height = 16) ?title all =
  let total_points = List.fold_left (fun acc s -> acc + Array.length s.points) 0 all in
  if total_points = 0 then ""
  else begin
    let xmin, xmax, ymin, ymax = bounds all in
    let xspan = if xmax > xmin then xmax -. xmin else 1. in
    let yspan = if ymax > ymin then ymax -. ymin else 1. in
    let grid = Array.make_matrix height width ' ' in
    let place marker (x, y) =
      let col = int_of_float ((x -. xmin) /. xspan *. float_of_int (width - 1)) in
      let row = int_of_float ((y -. ymin) /. yspan *. float_of_int (height - 1)) in
      let row = height - 1 - row in
      grid.(row).(col) <- marker
    in
    List.iteri
      (fun i s ->
        let marker = markers.[i mod String.length markers] in
        Array.iter (place marker) s.points)
      all;
    let buf = Buffer.create ((width + 16) * (height + 4)) in
    (match title with
    | Some t ->
        Buffer.add_string buf t;
        Buffer.add_char buf '\n'
    | None -> ());
    for row = 0 to height - 1 do
      let y = ymax -. (float_of_int row /. float_of_int (height - 1) *. yspan) in
      Buffer.add_string buf (Printf.sprintf "%10.3g |" y);
      Buffer.add_string buf (String.init width (fun col -> grid.(row).(col)));
      Buffer.add_char buf '\n'
    done;
    Buffer.add_string buf (String.make 11 ' ');
    Buffer.add_char buf '+';
    Buffer.add_string buf (String.make width '-');
    Buffer.add_char buf '\n';
    Buffer.add_string buf
      (Printf.sprintf "%s%-10.4g%*s%.4g\n" (String.make 12 ' ') xmin (width - 10) ""
         xmax);
    List.iteri
      (fun i s ->
        Buffer.add_string buf
          (Printf.sprintf "  [%c] %s\n" markers.[i mod String.length markers] s.label))
      all;
    Buffer.contents buf
  end
