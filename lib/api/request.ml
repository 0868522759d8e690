module Json = Obs.Json

type platform =
  | Speeds of float array
  | Profile of { name : string; p : int; seed : int }

type kind = Schedule | Ratio | Plan | Multi_load of float array

type t = {
  platform : platform;
  bandwidth : float;
  latency : float;
  workload : Dlt.Cost_model.t;
  comm_model : Dlt.Schedule.comm_model;
  total : float;
  kind : kind;
}

let schema_version = 1
let default_seed = 20130520

(* --- validation --------------------------------------------------------- *)

let positive_finite what v =
  if Float.is_finite v && v > 0. then Ok ()
  else Error (Printf.sprintf "%s must be finite and positive, got %h" what v)

let validate t =
  let ( let* ) = Result.bind in
  let* () =
    match t.platform with
    | Speeds [||] -> Error "platform.speeds must not be empty"
    | Speeds speeds ->
        let bad = ref None in
        Array.iteri
          (fun i s ->
            if !bad = None && not (Float.is_finite s && s > 0.) then bad := Some (i, s))
          speeds;
        (match !bad with
        | None -> Ok ()
        | Some (i, s) ->
            Error (Printf.sprintf "platform.speeds[%d] must be finite and positive, got %h" i s))
    | Profile { name; p; seed = _ } ->
        if p <= 0 then Error (Printf.sprintf "platform.p must be positive, got %d" p)
        else if Platform.Profiles.of_name name = None then
          Error (Printf.sprintf "unknown profile %S" name)
        else Ok ()
  in
  let* () = positive_finite "bandwidth" t.bandwidth in
  let* () =
    if Float.is_finite t.latency && t.latency >= 0. then Ok ()
    else Error (Printf.sprintf "latency must be finite and non-negative, got %h" t.latency)
  in
  let* () =
    match t.workload with
    | Dlt.Cost_model.Power alpha when not (Float.is_finite alpha && alpha >= 1.) ->
        Error (Printf.sprintf "workload.power must be finite and >= 1, got %h" alpha)
    | _ -> Ok ()
  in
  match t.kind with
  | Multi_load [||] -> Error "loads must not be empty"
  | Multi_load loads ->
      let bad = ref None in
      Array.iteri
        (fun i l ->
          if !bad = None && not (Float.is_finite l && l > 0.) then bad := Some (i, l))
        loads;
      (match !bad with
      | None -> Ok ()
      | Some (i, l) ->
          Error (Printf.sprintf "loads[%d] must be finite and positive, got %h" i l))
  | Schedule | Ratio | Plan -> positive_finite "total" t.total

let make ?(bandwidth = 1.) ?(latency = 0.) ?(workload = Dlt.Cost_model.Linear)
    ?(comm_model = Dlt.Schedule.Parallel) ?(total = 1.) ~platform ~kind () =
  let t = { platform; bandwidth; latency; workload; comm_model; total; kind } in
  match validate t with Ok () -> Ok t | Error e -> Error e

let star t =
  match t.platform with
  | Speeds speeds ->
      Platform.Star.of_speeds ~bandwidth:t.bandwidth ~latency:t.latency
        (Array.to_list speeds)
  | Profile { name; p; seed } ->
      let profile =
        match Platform.Profiles.of_name name with
        | Some p -> p
        | None -> invalid_arg (Printf.sprintf "Request.star: unknown profile %S" name)
      in
      Platform.Profiles.generate ~bandwidth:t.bandwidth ~latency:t.latency
        (Numerics.Rng.create ~seed ())
        ~p profile

(* --- JSON codec --------------------------------------------------------- *)

let kind_name = function
  | Schedule -> "schedule"
  | Ratio -> "ratio"
  | Plan -> "plan"
  | Multi_load _ -> "multi_load"

let workload_json = function
  | Dlt.Cost_model.Linear -> Json.String "linear"
  | Dlt.Cost_model.N_log_n -> Json.String "nlogn"
  | Dlt.Cost_model.Power alpha -> Json.Obj [ ("power", Json.Float alpha) ]

let comm_model_name = function
  | Dlt.Schedule.Parallel -> "parallel"
  | Dlt.Schedule.One_port -> "one_port"

let floats_json a = Json.List (Array.to_list (Array.map (fun f -> Json.Float f) a))

let platform_json = function
  | Speeds speeds -> Json.Obj [ ("speeds", floats_json speeds) ]
  | Profile { name; p; seed } ->
      Json.Obj
        [ ("profile", Json.String name); ("p", Json.Int p); ("seed", Json.Int seed) ]

let to_json t =
  Json.Obj
    ([
       ("schema_version", Json.Int schema_version);
       ("kind", Json.String (kind_name t.kind));
       ("platform", platform_json t.platform);
       ("bandwidth", Json.Float t.bandwidth);
       ("latency", Json.Float t.latency);
       ("workload", workload_json t.workload);
       ("comm_model", Json.String (comm_model_name t.comm_model));
     ]
    @
    match t.kind with
    | Multi_load loads -> [ ("loads", floats_json loads) ]
    | Schedule | Ratio | Plan -> [ ("total", Json.Float t.total) ])

(* Strict decoding in one pass over the fields: the first occurrence of
   each known key is kept (later repeats are ignored, as
   [List.assoc_opt] would), the first unknown key is remembered, and
   the checks then run in a fixed order, so a typoed option can never
   be silently defaulted and the same input always names the same
   error. *)

let number = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

let float_list what j =
  match j with
  | Json.List items -> (
      let a = Array.make (List.length items) 0. in
      let rec go i = function
        | [] -> true
        | Json.Int v :: rest ->
            a.(i) <- float_of_int v;
            go (i + 1) rest
        | Json.Float f :: rest ->
            a.(i) <- f;
            go (i + 1) rest
        | _ -> false
      in
      match go 0 items with
      | true -> Ok a
      | false -> Error (Printf.sprintf "%s must contain only numbers" what))
  | _ -> Error (Printf.sprintf "%s must be a list of numbers" what)

let num_field key default = function
  | None -> Ok default
  | Some j -> (
      match number j with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "%s must be a number" key))

let set slot v = match !slot with None -> slot := Some v | Some _ -> ()

let platform_of_fields pf =
  let ( let* ) = Result.bind in
  let speeds = ref None and profile = ref None and p = ref None and seed = ref None in
  let unknown = ref None in
  List.iter
    (fun (k, v) ->
      match k with
      | "speeds" -> set speeds v
      | "profile" -> set profile v
      | "p" -> set p v
      | "seed" -> set seed v
      | _ -> set unknown k)
    pf;
  match !unknown with
  | Some k -> Error (Printf.sprintf "unknown platform field %S" k)
  | None -> (
      match (!speeds, !profile) with
      | Some _, Some _ -> Error "platform must give speeds or a profile, not both"
      | Some j, None ->
          if !p <> None || !seed <> None then Error "p/seed only apply to profile platforms"
          else
            let* arr = float_list "platform.speeds" j in
            Ok (Speeds arr)
      | None, Some (Json.String name) -> (
          let* p =
            match !p with
            | Some (Json.Int p) -> Ok p
            | Some _ -> Error "platform.p must be an integer"
            | None -> Error "profile platforms require p"
          in
          match !seed with
          | Some (Json.Int seed) -> Ok (Profile { name; p; seed })
          | None -> Ok (Profile { name; p; seed = default_seed })
          | Some _ -> Error "platform.seed must be an integer")
      | None, Some _ -> Error "platform.profile must be a string"
      | None, None -> Error "platform must give speeds or a profile")

let of_json json =
  let ( let* ) = Result.bind in
  match json with
  | Json.Obj fields ->
      let schema = ref None and kind = ref None and platform = ref None in
      let bandwidth = ref None and latency = ref None and workload = ref None in
      let comm_model = ref None and total = ref None and loads = ref None in
      let unknown = ref None in
      List.iter
        (fun (k, v) ->
          match k with
          | "schema_version" -> set schema v
          | "kind" -> set kind v
          | "platform" -> set platform v
          | "bandwidth" -> set bandwidth v
          | "latency" -> set latency v
          | "workload" -> set workload v
          | "comm_model" -> set comm_model v
          | "total" -> set total v
          | "loads" -> set loads v
          | _ -> set unknown k)
        fields;
      let* () =
        match !schema with
        | None | Some (Json.Int 1) -> Ok ()
        | Some (Json.Int v) ->
            Error
              (Printf.sprintf "unsupported schema_version %d (this server speaks %d)" v
                 schema_version)
        | Some _ -> Error "schema_version must be an integer"
      in
      let* kind_tag =
        match !kind with
        | Some (Json.String s) -> Ok s
        | Some _ -> Error "kind must be a string"
        | None -> Error "missing required field kind"
      in
      let* platform =
        match !platform with
        | Some (Json.Obj pf) -> platform_of_fields pf
        | Some _ -> Error "platform must be an object"
        | None -> Error "missing required field platform"
      in
      let* bandwidth = num_field "bandwidth" 1. !bandwidth in
      let* latency = num_field "latency" 0. !latency in
      let* workload =
        match !workload with
        | None | Some (Json.String "linear") -> Ok Dlt.Cost_model.Linear
        | Some (Json.String "nlogn") -> Ok Dlt.Cost_model.N_log_n
        | Some (Json.Obj [ ("power", j) ]) -> (
            match number j with
            | Some alpha -> Ok (Dlt.Cost_model.Power alpha)
            | None -> Error "workload.power must be a number")
        | Some _ -> Error "workload must be \"linear\", \"nlogn\" or {\"power\": A}"
      in
      let* comm_model =
        match !comm_model with
        | None | Some (Json.String "parallel") -> Ok Dlt.Schedule.Parallel
        | Some (Json.String "one_port") -> Ok Dlt.Schedule.One_port
        | Some _ -> Error "comm_model must be \"parallel\" or \"one_port\""
      in
      let* total = num_field "total" 1. !total in
      let* kind =
        match (kind_tag, !loads) with
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
      let* () =
        match !unknown with
        | None -> Ok ()
        | Some k -> Error (Printf.sprintf "unknown field %S" k)
      in
      let t = { platform; bandwidth; latency; workload; comm_model; total; kind } in
      let* () = validate t in
      Ok t
  | _ -> Error "request must be a JSON object"

let of_line line =
  match Json.of_string line with
  | Error e -> Error (Printf.sprintf "malformed JSON: %s" e)
  | Ok json -> of_json json
