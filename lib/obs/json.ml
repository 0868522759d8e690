(* Minimal JSON emitter/parser shared by the bench artifact
   (BENCH_results.json), the Chrome trace exporter and the metrics
   snapshot.  No external dependency: the values exchanged are records
   of numbers and strings.  Promoted from bench/json_out.ml so the repo
   grows exactly one hand-rolled JSON layer. *)

[@@@nldl.domain_safe "exact_pow10 is written once at module initialisation and read-only after"]

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let rec clean s i = i = String.length s || ((not (needs_escape s.[i])) && clean s (i + 1))

(* Append [s] as a JSON string body; a string with nothing to escape
   (every object key this repo writes) goes in whole after one scan. *)
let add_escaped buf s =
  if clean s 0 then Buffer.add_string buf s
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

(* libc spells -0. as "-0", which reads back as [Int 0]; the emitters
   write "-0.0" instead, so a negative zero survives a round trip. *)
let negative_zero f = Float.equal f 0. && Float.sign_bit f

let add_int buf scratch i = Buffer.add_subbytes buf scratch 0 (Float_print.write_int scratch i)

let rec emit buf scratch indent v =
  let pad n = String.make n ' ' in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> add_int buf scratch i
  | Float f ->
      if negative_zero f then Buffer.add_string buf "-0.0"
      else if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.6g" f)
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
          emit buf scratch (indent + 2) item)
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
          emit buf scratch (indent + 2) item)
        fields;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (pad indent);
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 1024 in
  emit buf (Bytes.create Float_print.max_length) 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* %.6g is fine for human-facing reports but loses bits; the
   query-plane wire format (Api/Serve line protocol) needs byte-stable,
   lossless values.  The rule is libc's %.15g when it parses back to the
   same double, else %.17g -- lossless, though not always the shortest
   such decimal (5e-324 renders as 4.94065645841247e-324).  Float_print
   generates those digits without calling libc. *)
let float_compact f = if Float.is_finite f then Float_print.render f else "null"

(* Floats and ints go straight into [buf] through one scratch of
   [Float_print.max_length] bytes per document. *)
let rec emit_compact buf scratch v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf scratch i
  | Float f ->
      if negative_zero f then Buffer.add_string buf "-0.0"
      else if Float.is_finite f then
        Buffer.add_subbytes buf scratch 0 (Float_print.write scratch f)
      else Buffer.add_string buf "null"
  | String s -> add_quoted buf s
  | List [] -> Buffer.add_string buf "[]"
  | List (item :: rest) ->
      Buffer.add_char buf '[';
      emit_compact buf scratch item;
      emit_items buf scratch rest
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj (field :: rest) ->
      Buffer.add_char buf '{';
      emit_field buf scratch field;
      emit_fields buf scratch rest

and emit_items buf scratch = function
  | [] -> Buffer.add_char buf ']'
  | item :: rest ->
      Buffer.add_char buf ',';
      emit_compact buf scratch item;
      emit_items buf scratch rest

and emit_field buf scratch (k, item) =
  add_quoted buf k;
  Buffer.add_char buf ':';
  emit_compact buf scratch item

and emit_fields buf scratch = function
  | [] -> Buffer.add_char buf '}'
  | field :: rest ->
      Buffer.add_char buf ',';
      emit_field buf scratch field;
      emit_fields buf scratch rest

and add_quoted buf s =
  Buffer.add_char buf '"';
  add_escaped buf s;
  Buffer.add_char buf '"'

let to_compact v =
  let buf = Buffer.create 1024 in
  emit_compact buf (Bytes.create Float_print.max_length) v;
  Buffer.contents buf

let write_file path v =
  let oc = open_out path in
  output_string oc (to_string v);
  close_out oc

(* --- parser ------------------------------------------------------------ *)

(* Recursive-descent parser for the subset above (which is all of JSON
   minus exotic number forms), indexing the input directly.  Exists so
   the exporter tests can verify emitted traces are well-formed without
   shelling out to python, and as the wire decoder. *)

exception Parse_error of string

let is_digit c = c >= '0' && c <= '9'

(* 10^0 .. 10^22, each exact in a double (5^22 < 2^53). *)
let exact_pow10 = Array.init 23 (fun k -> float_of_string ("1e" ^ string_of_int k))

(* Classify the number s.[start .. stop) in place; [Null] when it is
   not one.  A signed digit run that fits in an int is an [Int], as
   [int_of_string_opt] decides; any other text in strtod's decimal
   grammar is a [Float].  With at most 15 significant digits
   (m < 10^15 < 2^53) and a decimal exponent k of at most 22 in
   magnitude, m and 10^k are exact doubles, so one [*.] or [/.] is
   correctly rounded: Clinger's fast path.  Everything else goes to
   [float_of_string_opt] on the substring, as before. *)
let number s start stop =
  let i = ref start in
  let neg = !i < stop && s.[!i] = '-' in
  if !i < stop && (s.[!i] = '-' || s.[!i] = '+') then incr i;
  (* m holds the first 18 significant digits, of [sig_digits] in all. *)
  let m = ref 0 and sig_digits = ref 0 and mantissa = ref 0 and frac_digits = ref 0 in
  let has_dot = ref false in
  while
    !i < stop
    &&
    match s.[!i] with
    | '0' .. '9' as c ->
        let d = Char.code c - 48 in
        if !sig_digits > 0 || d > 0 then begin
          incr sig_digits;
          if !sig_digits <= 18 then m := (!m * 10) + d
        end;
        incr mantissa;
        if !has_dot then incr frac_digits;
        true
    | '.' when not !has_dot ->
        has_dot := true;
        true
    | _ -> false
  do
    incr i
  done;
  let has_exp = !i < stop && (s.[!i] = 'e' || s.[!i] = 'E') in
  let exp = ref 0 and big = ref false and ok = ref (!mantissa > 0) in
  if has_exp then begin
    incr i;
    let exp_neg = !i < stop && s.[!i] = '-' in
    if !i < stop && (s.[!i] = '-' || s.[!i] = '+') then incr i;
    let from = !i in
    (* An exponent past 10^5 is left to strtod whatever the mantissa. *)
    while !i < stop && is_digit s.[!i] do
      if !exp < 100_000 then exp := (!exp * 10) + Char.code s.[!i] - 48 else big := true;
      incr i
    done;
    if !i = from then ok := false;
    if exp_neg then exp := - !exp
  end;
  if not (!ok && !i = stop) then Null
  else if not (!has_dot || has_exp) then
    if !sig_digits <= 18 then Int (if neg then - !m else !m)
    else
      let text = String.sub s start (stop - start) in
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> ( match float_of_string_opt text with Some f -> Float f | None -> Null)
  else
    let k = !exp - !frac_digits in
    if !sig_digits <= 15 && k >= -22 && k <= 22 && not !big then
      let v = float_of_int !m in
      let v = if k >= 0 then v *. exact_pow10.(k) else v /. exact_pow10.(-k) in
      Float (if neg then -.v else v)
    else
      match float_of_string_opt (String.sub s start (stop - start)) with
      | Some f -> Float f
      | None -> Null

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let at c = !pos < n && s.[!pos] = c in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c = if at c then incr pos else fail (Printf.sprintf "expected %C" c) in
  let literal word value =
    let len = String.length word in
    let rec same i = i = len || (s.[!pos + i] = word.[i] && same (i + 1)) in
    if !pos + len <= n && same 0 then begin
      pos := !pos + len;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  (* A string with no escape is one substring; the first backslash
     switches to a buffer for the rest. *)
  let parse_string () =
    expect '"';
    let start = !pos in
    while !pos < n && s.[!pos] <> '"' && s.[!pos] <> '\\' do
      incr pos
    done;
    if at '"' then begin
      incr pos;
      String.sub s start (!pos - 1 - start)
    end
    else begin
      let buf = Buffer.create (2 * (!pos - start + 8)) in
      Buffer.add_substring buf s start (!pos - start);
      let add c =
        Buffer.add_char buf c;
        incr pos
      in
      let rec loop () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' -> incr pos
          | '\\' -> (
              incr pos;
              if !pos >= n then fail "bad escape"
              else
                match s.[!pos] with
                | '"' -> add '"'; loop ()
                | '\\' -> add '\\'; loop ()
                | '/' -> add '/'; loop ()
                | 'n' -> add '\n'; loop ()
                | 't' -> add '\t'; loop ()
                | 'r' -> add '\r'; loop ()
                | 'b' -> add '\b'; loop ()
                | 'f' -> add '\012'; loop ()
                | 'u' ->
                    incr pos;
                    if !pos + 4 > n then fail "truncated \\u escape";
                    let code = int_of_string ("0x" ^ String.sub s !pos 4) in
                    pos := !pos + 4;
                    (* Codepoints above 0x7f are emitted raw by [add_escaped],
                       so a plain byte round-trips everything this repo
                       writes. *)
                    if code < 0x80 then Buffer.add_char buf (Char.chr code)
                    else Buffer.add_string buf (Printf.sprintf "\\u%04x" code);
                    loop ()
                | _ -> fail "bad escape")
          | c -> add c; loop ()
      in
      loop ();
      Buffer.contents buf
    end
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      incr pos
    done;
    match number s start !pos with
    | Null -> fail (Printf.sprintf "bad number %S" (String.sub s start (!pos - start)))
    | v -> v
  in
  let rec parse_value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match s.[!pos] with
    | '"' -> String (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '[' ->
        incr pos;
        skip_ws ();
        if at ']' then begin
          incr pos;
          List []
        end
        else
          let first = parse_value () in
          List (items [ first ])
    | '{' ->
        incr pos;
        skip_ws ();
        if at '}' then begin
          incr pos;
          Obj []
        end
        else
          let first = field () in
          Obj (fields [ first ])
    | _ -> parse_number ()
  and items acc =
    skip_ws ();
    if at ',' then begin
      incr pos;
      let item = parse_value () in
      items (item :: acc)
    end
    else if at ']' then begin
      incr pos;
      List.rev acc
    end
    else fail "expected ',' or ']'"
  and field () =
    skip_ws ();
    let key = parse_string () in
    skip_ws ();
    expect ':';
    (key, parse_value ())
  and fields acc =
    skip_ws ();
    if at ',' then begin
      incr pos;
      let f = field () in
      fields (f :: acc)
    end
    else if at '}' then begin
      incr pos;
      List.rev acc
    end
    else fail "expected ',' or '}'"
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
