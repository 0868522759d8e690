let add_floats buf a =
  Array.iter
    (fun f ->
      Buffer.add_char buf ',';
      Buffer.add_string buf (Obs.Json.float_compact f))
    a

let of_request (r : Request.t) =
  let star = Request.star r in
  let buf = Buffer.create 128 in
  Buffer.add_string buf "v1";
  Buffer.add_char buf '|';
  (Buffer.add_string buf
  @@
  match r.kind with
  | Request.Schedule -> "schedule"
  | Request.Ratio -> "ratio"
  | Request.Plan -> "plan"
  | Request.Multi_load _ -> "multi_load");
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
      Buffer.add_string buf (Obs.Json.float_compact alpha));
  Buffer.add_string buf "|bw:";
  Buffer.add_string buf (Obs.Json.float_compact r.bandwidth);
  Buffer.add_string buf "|lat:";
  Buffer.add_string buf (Obs.Json.float_compact r.latency);
  (match r.kind with
  | Request.Multi_load loads ->
      Buffer.add_string buf "|loads:";
      add_floats buf loads
  | Request.Schedule | Request.Ratio | Request.Plan ->
      Buffer.add_string buf "|total:";
      Buffer.add_string buf (Obs.Json.float_compact r.total));
  Buffer.add_string buf "|speeds:";
  add_floats buf (Platform.Star.speeds star);
  Buffer.contents buf
