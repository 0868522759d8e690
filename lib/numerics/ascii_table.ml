type align = Left | Right

type t = {
  headers : string list;
  width : int;
  mutable rows : string list list; (* reverse order *)
  mutable align : align array;
}

let create ~headers =
  {
    headers;
    width = List.length headers;
    rows = [];
    align = Array.make (List.length headers) Right;
  }

let add_row t row =
  if List.length row <> t.width then
    invalid_arg
      (Printf.sprintf "Ascii_table.add_row: expected %d cells, got %d" t.width
         (List.length row));
  t.rows <- row :: t.rows

let set_align t aligns =
  if List.length aligns <> t.width then
    invalid_arg "Ascii_table.set_align: wrong number of alignments";
  t.align <- Array.of_list aligns

let column_widths t =
  let widths = Array.of_list (List.map String.length t.headers) in
  let account row =
    List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row
  in
  List.iter account t.rows;
  widths

let pad align width s =
  let gap = width - String.length s in
  if gap <= 0 then s
  else
    match align with
    | Left -> s ^ String.make gap ' '
    | Right -> String.make gap ' ' ^ s

let render t =
  let widths = column_widths t in
  let buf = Buffer.create 256 in
  let render_row cells =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (pad t.align.(i) widths.(i) cell))
      cells;
    Buffer.add_char buf '\n'
  in
  render_row t.headers;
  let rule = Array.fold_left (fun acc w -> acc + w) 0 widths + (2 * (t.width - 1)) in
  Buffer.add_string buf (String.make rule '-');
  Buffer.add_char buf '\n';
  List.iter render_row (List.rev t.rows);
  Buffer.contents buf

let print t =
  print_string (render t);
  flush stdout
