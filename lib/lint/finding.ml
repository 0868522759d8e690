type t = {
  rule : string;
  file : string;
  line : int;
  col : int;
  message : string;
}

let make ~rule ~file ~line ~col ~message = { rule; file; line; col; message }

let of_loc ~rule ~file ~(loc : Location.t) ~message =
  let p = loc.Location.loc_start in
  {
    rule;
    file;
    line = p.Lexing.pos_lnum;
    col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
    message;
  }

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare a.rule b.rule in
        if c <> 0 then c else String.compare a.message b.message

let to_string f =
  Printf.sprintf "%s:%d:%d: [%s] %s" f.file f.line f.col f.rule f.message

let to_json f =
  Obs.Json.Obj
    [
      ("rule", Obs.Json.String f.rule);
      ("file", Obs.Json.String f.file);
      ("line", Obs.Json.Int f.line);
      ("col", Obs.Json.Int f.col);
      ("message", Obs.Json.String f.message);
    ]
