module Json = Obs.Json

type provenance = { solver : string }

type worker_row = {
  speed : float;
  data : float;
  fraction : float;
  comm_start : float;
  comm_end : float;
  compute_start : float;
  compute_end : float;
}

type body =
  | Schedule of { makespan : float; workers : worker_row array }
  | Ratio of { makespan : float; ideal : float; ratio : float; done_fraction : float }
  | Plan of { makespan : float; allocation : float array; fractions : float array }
  | Multi_load of {
      throughput : float;
      rates : float array;
      admitted : float array;
      utilization : float;
    }
  | Table of { experiment : string; header : string list; rows : Obs.Json.t }
  | Error of { code : string; message : string }

type t = { body : body; provenance : provenance }

let schema_version = 1

let error ?(solver = "serve") ~code message =
  { body = Error { code; message }; provenance = { solver } }

let is_error t = match t.body with Error _ -> true | _ -> false

(* --- encoding ----------------------------------------------------------- *)

let kind_name = function
  | Schedule _ -> "schedule"
  | Ratio _ -> "ratio"
  | Plan _ -> "plan"
  | Multi_load _ -> "multi_load"
  | Table _ -> "table"
  | Error _ -> "error"

let floats_json a = Json.List (Array.to_list (Array.map (fun f -> Json.Float f) a))

let worker_json w =
  Json.Obj
    [
      ("speed", Json.Float w.speed);
      ("data", Json.Float w.data);
      ("fraction", Json.Float w.fraction);
      ("comm_start", Json.Float w.comm_start);
      ("comm_end", Json.Float w.comm_end);
      ("compute_start", Json.Float w.compute_start);
      ("compute_end", Json.Float w.compute_end);
    ]

let body_fields = function
  | Schedule { makespan; workers } ->
      [
        ("makespan", Json.Float makespan);
        ("workers", Json.List (Array.to_list (Array.map worker_json workers)));
      ]
  | Ratio { makespan; ideal; ratio; done_fraction } ->
      [
        ("makespan", Json.Float makespan);
        ("ideal", Json.Float ideal);
        ("ratio", Json.Float ratio);
        ("done_fraction", Json.Float done_fraction);
      ]
  | Plan { makespan; allocation; fractions } ->
      [
        ("makespan", Json.Float makespan);
        ("allocation", floats_json allocation);
        ("fractions", floats_json fractions);
      ]
  | Multi_load { throughput; rates; admitted; utilization } ->
      [
        ("throughput", Json.Float throughput);
        ("rates", floats_json rates);
        ("admitted", floats_json admitted);
        ("utilization", Json.Float utilization);
      ]
  | Table { experiment; header; rows } ->
      [
        ("experiment", Json.String experiment);
        ("header", Json.List (List.map (fun h -> Json.String h) header));
        ("rows", rows);
      ]
  | Error { code; message } ->
      [ ("error", Json.String code); ("message", Json.String message) ]

let to_json t =
  Json.Obj
    ([
       ("schema_version", Json.Int schema_version);
       ("kind", Json.String (kind_name t.body));
       ("provenance", Json.Obj [ ("solver", Json.String t.provenance.solver) ]);
     ]
    @ body_fields t.body)

let to_line t = Json.to_compact (to_json t)

(* --- decoding ----------------------------------------------------------- *)

let number = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

let num_field fields key =
  match List.assoc_opt key fields with
  | Some j -> (
      match number j with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "%s must be a number" key))
  | None -> Error (Printf.sprintf "missing field %s" key)

let floats_field fields key =
  match List.assoc_opt key fields with
  | Some (Json.List items) ->
      let rec go acc = function
        | [] -> Ok (Array.of_list (List.rev acc))
        | item :: rest -> (
            match number item with
            | Some f -> go (f :: acc) rest
            | None -> Error (Printf.sprintf "%s must contain only numbers" key))
      in
      go [] items
  | Some _ -> Error (Printf.sprintf "%s must be a list" key)
  | None -> Error (Printf.sprintf "missing field %s" key)

let string_field fields key =
  match List.assoc_opt key fields with
  | Some (Json.String s) -> Ok s
  | Some _ -> Error (Printf.sprintf "%s must be a string" key)
  | None -> Error (Printf.sprintf "missing field %s" key)

let worker_of_json = function
  | Json.Obj fields ->
      let ( let* ) = Result.bind in
      let* speed = num_field fields "speed" in
      let* data = num_field fields "data" in
      let* fraction = num_field fields "fraction" in
      let* comm_start = num_field fields "comm_start" in
      let* comm_end = num_field fields "comm_end" in
      let* compute_start = num_field fields "compute_start" in
      let* compute_end = num_field fields "compute_end" in
      Ok { speed; data; fraction; comm_start; comm_end; compute_start; compute_end }
  | _ -> Error "workers must contain objects"

let of_json json =
  let ( let* ) = Result.bind in
  match json with
  | Json.Obj fields ->
      let* () =
        match List.assoc_opt "schema_version" fields with
        | Some (Json.Int v) when v = schema_version -> Ok ()
        | Some (Json.Int v) -> Error (Printf.sprintf "unsupported schema_version %d" v)
        | _ -> Error "missing or malformed schema_version"
      in
      let* kind = string_field fields "kind" in
      let* solver =
        match List.assoc_opt "provenance" fields with
        | Some (Json.Obj pf) -> string_field pf "solver"
        | _ -> Error "missing or malformed provenance"
      in
      let* body =
        match kind with
        | "schedule" ->
            let* makespan = num_field fields "makespan" in
            let* workers =
              match List.assoc_opt "workers" fields with
              | Some (Json.List items) ->
                  let rec go acc = function
                    | [] -> Ok (Array.of_list (List.rev acc))
                    | item :: rest ->
                        let* w = worker_of_json item in
                        go (w :: acc) rest
                  in
                  go [] items
              | _ -> Error "missing or malformed workers"
            in
            Ok (Schedule { makespan; workers })
        | "ratio" ->
            let* makespan = num_field fields "makespan" in
            let* ideal = num_field fields "ideal" in
            let* ratio = num_field fields "ratio" in
            let* done_fraction = num_field fields "done_fraction" in
            Ok (Ratio { makespan; ideal; ratio; done_fraction })
        | "plan" ->
            let* makespan = num_field fields "makespan" in
            let* allocation = floats_field fields "allocation" in
            let* fractions = floats_field fields "fractions" in
            Ok (Plan { makespan; allocation; fractions })
        | "multi_load" ->
            let* throughput = num_field fields "throughput" in
            let* rates = floats_field fields "rates" in
            let* admitted = floats_field fields "admitted" in
            let* utilization = num_field fields "utilization" in
            Ok (Multi_load { throughput; rates; admitted; utilization })
        | "table" ->
            let* experiment = string_field fields "experiment" in
            let* header =
              match List.assoc_opt "header" fields with
              | Some (Json.List items) ->
                  let rec go acc = function
                    | [] -> Ok (List.rev acc)
                    | Json.String s :: rest -> go (s :: acc) rest
                    | _ -> Error "header must contain only strings"
                  in
                  go [] items
              | _ -> Error "missing or malformed header"
            in
            let* rows =
              match List.assoc_opt "rows" fields with
              | Some rows -> Ok rows
              | None -> Error "missing field rows"
            in
            Ok (Table { experiment; header; rows })
        | "error" ->
            let* code = string_field fields "error" in
            let* message = string_field fields "message" in
            Ok (Error { code; message })
        | other -> Error (Printf.sprintf "unknown response kind %S" other)
      in
      Ok { body; provenance = { solver } }
  | _ -> Error "response must be a JSON object"
