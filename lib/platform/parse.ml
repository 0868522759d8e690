let parse_line ~line_number line =
  let stripped =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let fields =
    String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) stripped)
    |> List.filter (fun f -> f <> "")
  in
  let err msg = Error (Printf.sprintf "line %d: %s" line_number msg) in
  let float_field name s =
    match float_of_string_opt s with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "line %d: bad %s %S" line_number name s)
  in
  match fields with
  | [] -> Ok None
  | [ speed ] -> Result.map (fun s -> Some (s, 1., 0.)) (float_field "speed" speed)
  | [ speed; bandwidth ] ->
      Result.bind (float_field "speed" speed) (fun s ->
          Result.map (fun bw -> Some (s, bw, 0.)) (float_field "bandwidth" bandwidth))
  | [ speed; bandwidth; latency ] ->
      Result.bind (float_field "speed" speed) (fun s ->
          Result.bind (float_field "bandwidth" bandwidth) (fun bw ->
              Result.map (fun l -> Some (s, bw, l)) (float_field "latency" latency)))
  | _ -> err "expected: speed [bandwidth [latency]]"

let of_string text =
  let lines = String.split_on_char '\n' text in
  let rec collect acc line_number = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match parse_line ~line_number line with
        | Error _ as e -> e
        | Ok None -> collect acc (line_number + 1) rest
        | Ok (Some spec) -> collect (spec :: acc) (line_number + 1) rest)
  in
  match collect [] 1 lines with
  | Error _ as e -> e
  | Ok [] -> Error "no workers defined"
  | Ok specs -> (
      try
        Ok
          (Star.create
             (List.mapi
                (fun i (speed, bandwidth, latency) ->
                  Processor.make ~id:(i + 1) ~speed ~bandwidth ~latency ())
                specs))
      with Invalid_argument msg -> Error msg)

let of_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error msg -> Error msg
