(* The wire codec as it stood before the single-pass scanner, the
   in-place float writer and the raw-bit fingerprint: the JSON parser,
   the compact emitter, [Api.Request.of_json] and
   [Api.Fingerprint.of_request], copied verbatim except for module
   paths and the float rendering, which is [Float_oracle]'s libc rule
   (equal to [Obs.Json.float_compact] by [Test_json_codec]).  Frozen;
   see json_oracle.mli. *)

open Obs.Json
open Api.Request

(* --- compact emitter ---------------------------------------------------- *)

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

let rec emit_compact buf v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (Float_oracle.render f)
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

(* --- parser ------------------------------------------------------------ *)

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

(* --- Api.Request.of_json ------------------------------------------------- *)

module Json = Obs.Json

let number = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

let float_list what j =
  match j with
  | Json.List items ->
      let rec go acc = function
        | [] -> Ok (Array.of_list (List.rev acc))
        | item :: rest -> (
            match number item with
            | Some f -> go (f :: acc) rest
            | None -> Error (Printf.sprintf "%s must contain only numbers" what))
      in
      go [] items
  | _ -> Error (Printf.sprintf "%s must be a list of numbers" what)

let request_of_json json =
  let ( let* ) = Result.bind in
  match json with
  | Json.Obj fields ->
      let seen = Hashtbl.create 8 in
      let take key =
        Hashtbl.replace seen key ();
        List.assoc_opt key fields
      in
      let num_field key default =
        match take key with
        | None -> Ok default
        | Some j -> (
            match number j with
            | Some f -> Ok f
            | None -> Error (Printf.sprintf "%s must be a number" key))
      in
      let* () =
        match take "schema_version" with
        | None | Some (Json.Int 1) -> Ok ()
        | Some (Json.Int v) ->
            Error
              (Printf.sprintf "unsupported schema_version %d (this server speaks %d)" v
                 Api.Request.schema_version)
        | Some _ -> Error "schema_version must be an integer"
      in
      let* kind_tag =
        match take "kind" with
        | Some (Json.String s) -> Ok s
        | Some _ -> Error "kind must be a string"
        | None -> Error "missing required field kind"
      in
      let* platform =
        match take "platform" with
        | Some (Json.Obj pf) -> (
            let pseen = Hashtbl.create 4 in
            let ptake key =
              Hashtbl.replace pseen key ();
              List.assoc_opt key pf
            in
            let speeds = ptake "speeds" in
            let profile = ptake "profile" in
            let p = ptake "p" in
            let seed = ptake "seed" in
            let unknown =
              List.filter (fun (k, _) -> not (Hashtbl.mem pseen k)) pf
            in
            match unknown with
            | (k, _) :: _ -> Error (Printf.sprintf "unknown platform field %S" k)
            | [] -> (
                match (speeds, profile) with
                | Some _, Some _ ->
                    Error "platform must give speeds or a profile, not both"
                | Some j, None ->
                    if p <> None || seed <> None then
                      Error "p/seed only apply to profile platforms"
                    else
                      let* arr = float_list "platform.speeds" j in
                      Ok (Speeds arr)
                | None, Some (Json.String name) -> (
                    let* p =
                      match p with
                      | Some (Json.Int p) -> Ok p
                      | Some _ -> Error "platform.p must be an integer"
                      | None -> Error "profile platforms require p"
                    in
                    match seed with
                    | Some (Json.Int seed) -> Ok (Profile { name; p; seed })
                    | None -> Ok (Profile { name; p; seed = 20130520 })
                    | Some _ -> Error "platform.seed must be an integer")
                | None, Some _ -> Error "platform.profile must be a string"
                | None, None -> Error "platform must give speeds or a profile"))
        | Some _ -> Error "platform must be an object"
        | None -> Error "missing required field platform"
      in
      let* bandwidth = num_field "bandwidth" 1. in
      let* latency = num_field "latency" 0. in
      let* workload =
        match take "workload" with
        | None | Some (Json.String "linear") -> Ok Dlt.Cost_model.Linear
        | Some (Json.String "nlogn") -> Ok Dlt.Cost_model.N_log_n
        | Some (Json.Obj [ ("power", j) ]) -> (
            match number j with
            | Some alpha -> Ok (Dlt.Cost_model.Power alpha)
            | None -> Error "workload.power must be a number")
        | Some _ -> Error "workload must be \"linear\", \"nlogn\" or {\"power\": A}"
      in
      let* comm_model =
        match take "comm_model" with
        | None | Some (Json.String "parallel") -> Ok Dlt.Schedule.Parallel
        | Some (Json.String "one_port") -> Ok Dlt.Schedule.One_port
        | Some _ -> Error "comm_model must be \"parallel\" or \"one_port\""
      in
      let* total = num_field "total" 1. in
      let loads = take "loads" in
      let* kind =
        match (kind_tag, loads) with
        | "multi_load", Some j ->
            let* arr = float_list "loads" j in
            Ok (Multi_load arr)
        | "multi_load", None -> Error "multi_load requests require loads"
        | _, Some _ -> Error "loads only applies to multi_load requests"
        | "schedule", None -> Ok Schedule
        | "ratio", None -> Ok Ratio
        | "plan", None -> Ok Plan
        | other, None -> Error (Printf.sprintf "unknown kind %S" other)
      in
      let unknown = List.filter (fun (k, _) -> not (Hashtbl.mem seen k)) fields in
      let* () =
        match unknown with
        | [] -> Ok ()
        | (k, _) :: _ -> Error (Printf.sprintf "unknown field %S" k)
      in
      let t = { platform; bandwidth; latency; workload; comm_model; total; kind } in
      let* () = Api.Request.validate t in
      Ok t
  | _ -> Error "request must be a JSON object"

(* --- Api.Fingerprint.of_request ------------------------------------------- *)

let add_floats buf a =
  Array.iter
    (fun f ->
      Buffer.add_char buf ',';
      Buffer.add_string buf (Float_oracle.render f))
    a

let fingerprint (r : Api.Request.t) =
  let star = Api.Request.star r in
  let buf = Buffer.create 128 in
  Buffer.add_string buf "v1";
  Buffer.add_char buf '|';
  (Buffer.add_string buf
  @@
  match r.kind with
  | Api.Request.Schedule -> "schedule"
  | Api.Request.Ratio -> "ratio"
  | Api.Request.Plan -> "plan"
  | Api.Request.Multi_load _ -> "multi_load");
  Buffer.add_char buf '|';
  (Buffer.add_string buf
  @@
  match r.comm_model with Dlt.Schedule.Parallel -> "par" | Dlt.Schedule.One_port -> "1p");
  Buffer.add_char buf '|';
  (match r.workload with
  | Dlt.Cost_model.Linear -> Buffer.add_string buf "lin"
  | Dlt.Cost_model.N_log_n -> Buffer.add_string buf "nlogn"
  | Dlt.Cost_model.Power alpha ->
      Buffer.add_string buf "pow:";
      Buffer.add_string buf (Float_oracle.render alpha));
  Buffer.add_string buf "|bw:";
  Buffer.add_string buf (Float_oracle.render r.bandwidth);
  Buffer.add_string buf "|lat:";
  Buffer.add_string buf (Float_oracle.render r.latency);
  (match r.kind with
  | Api.Request.Multi_load loads ->
      Buffer.add_string buf "|loads:";
      add_floats buf loads
  | Api.Request.Schedule | Api.Request.Ratio | Api.Request.Plan ->
      Buffer.add_string buf "|total:";
      Buffer.add_string buf (Float_oracle.render r.total));
  Buffer.add_string buf "|speeds:";
  add_floats buf (Platform.Star.speeds star);
  Buffer.contents buf
