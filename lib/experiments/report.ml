type cell = Int of int | Float of float * int | Text of string
type t = { title : string; header : string list; rows : cell list list }

let text = function
  | Int i -> string_of_int i
  | Float (f, digits) -> Printf.sprintf "%.*g" digits f
  | Text s -> s

let render t =
  let width = List.length t.header in
  let widths = Array.of_list (List.map String.length t.header) in
  (* A column takes its alignment from its first row's cell. *)
  let right = Array.make width true in
  let cells =
    List.map
      (fun row ->
        if List.length row <> width then
          invalid_arg
            (Printf.sprintf "Report.render: expected %d cells, got %d" width
               (List.length row));
        List.mapi
          (fun i cell ->
            let s = text cell in
            widths.(i) <- max widths.(i) (String.length s);
            (s, match cell with Text _ -> false | Int _ | Float _ -> true))
          row)
      t.rows
  in
  (match cells with
  | first :: _ -> List.iteri (fun i (_, r) -> right.(i) <- r) first
  | [] -> ());
  let buf = Buffer.create 256 in
  Printf.bprintf buf "\n=== %s ===\n" t.title;
  let line row =
    List.iteri
      (fun i (s, r) ->
        if i > 0 then Buffer.add_string buf "  ";
        let gap = String.make (widths.(i) - String.length s) ' ' in
        Buffer.add_string buf (if r then gap ^ s else s ^ gap))
      row;
    Buffer.add_char buf '\n'
  in
  line (List.mapi (fun i h -> (h, right.(i))) t.header);
  Buffer.add_string buf
    (String.make (Array.fold_left ( + ) 0 widths + (2 * max 0 (width - 1))) '-');
  Buffer.add_char buf '\n';
  List.iter line cells;
  Buffer.contents buf

let print t =
  print_string (render t);
  flush stdout
