(* Minimal JSON emitter/parser shared by the bench artifact
   (BENCH_results.json), the Chrome trace exporter and the metrics
   snapshot.  No external dependency: the values exchanged are records
   of numbers and strings.  Promoted from bench/json_out.ml so the repo
   grows exactly one hand-rolled JSON layer. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* Append [s] as a JSON string body; a string with nothing to escape
   (every object key this repo writes) goes in whole. *)
let add_escaped buf s =
  if not (String.exists needs_escape s) then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

let rec emit buf indent v =
  let pad n = String.make n ' ' in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.6g" f)
      else Buffer.add_string buf "null"
  | String s ->
      Buffer.add_char buf '"';
      add_escaped buf s;
      Buffer.add_char buf '"'
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (pad (indent + 2));
          emit buf (indent + 2) item)
        items;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (pad indent);
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (pad (indent + 2));
          Buffer.add_char buf '"';
          add_escaped buf k;
          Buffer.add_string buf "\": ";
          emit buf (indent + 2) item)
        fields;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (pad indent);
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 1024 in
  emit buf 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* %.6g is fine for human-facing reports but loses bits; the
   query-plane wire format (Api/Serve line protocol) needs byte-stable,
   lossless values.  The rule is libc's %.15g when it parses back to the
   same double, else %.17g -- lossless, though not always the shortest
   such decimal (5e-324 renders as 4.94065645841247e-324).  Float_print
   generates those digits without calling libc. *)
let float_compact f = if Float.is_finite f then Float_print.render f else "null"

let rec emit_compact buf v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_compact f)
  | String s ->
      Buffer.add_char buf '"';
      add_escaped buf s;
      Buffer.add_char buf '"'
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          emit_compact buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          add_escaped buf k;
          Buffer.add_string buf "\":";
          emit_compact buf item)
        fields;
      Buffer.add_char buf '}'

let to_compact v =
  let buf = Buffer.create 256 in
  emit_compact buf v;
  Buffer.contents buf

let write_file path v =
  let oc = open_out path in
  output_string oc (to_string v);
  close_out oc

(* --- parser ------------------------------------------------------------ *)

(* Recursive-descent parser for the subset above (which is all of JSON
   minus exotic number forms).  Exists so the exporter tests can verify
   emitted traces are well-formed without shelling out to python. *)

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> Buffer.add_char buf '"'; advance (); loop ()
          | Some '\\' -> Buffer.add_char buf '\\'; advance (); loop ()
          | Some '/' -> Buffer.add_char buf '/'; advance (); loop ()
          | Some 'n' -> Buffer.add_char buf '\n'; advance (); loop ()
          | Some 't' -> Buffer.add_char buf '\t'; advance (); loop ()
          | Some 'r' -> Buffer.add_char buf '\r'; advance (); loop ()
          | Some 'b' -> Buffer.add_char buf '\b'; advance (); loop ()
          | Some 'f' -> Buffer.add_char buf '\012'; advance (); loop ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then fail "truncated \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              (* Codepoints above 0x7f are emitted raw by [add_escaped], so a
                 plain byte round-trips everything this repo writes. *)
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else Buffer.add_string buf (Printf.sprintf "\\u%04x" code);
              loop ()
          | _ -> fail "bad escape")
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail (Printf.sprintf "bad number %S" text))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin advance (); List [] end
        else begin
          let items = ref [ parse_value () ] in
          let rec loop () =
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items := parse_value () :: !items;
                loop ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          loop ();
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin advance (); Obj [] end
        else begin
          let field () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            (key, parse_value ())
          in
          let fields = ref [ field () ] in
          let rec loop () =
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields := field () :: !fields;
                loop ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          loop ();
          Obj (List.rev !fields)
        end
    | Some _ -> parse_number ()
  in
  match parse_value () with
  | v ->
      skip_ws ();
      if !pos <> n then Error (Printf.sprintf "trailing garbage at offset %d" !pos)
      else Ok v
  | exception Parse_error msg -> Error msg
  | exception Failure msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None
