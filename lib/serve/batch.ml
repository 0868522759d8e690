module Json = Obs.Json

type config = {
  cache_capacity : int;
  queue_depth : int;
  deadline_s : float option;
}

let default_config = { cache_capacity = 1024; queue_depth = 256; deadline_s = None }

(* Misses fan out as wide as the host has domains: under a one-CPU
   affinity pin this is 1, and misses are solved on the calling domain. *)
let fanout = Exec.Pool.default_domains ()

type t = {
  cfg : config;
  pool : Exec.Pool.t;
  cache : Cache.t;
  latency : Obs.Hist.t;
  metric_requests : Obs.Metrics.counter;
  metric_rejected : Obs.Metrics.counter;
  mutable request_count : int;
  mutable rejected_count : int;
}

let create ?pool cfg =
  if cfg.queue_depth <= 0 then invalid_arg "Batch.create: queue_depth must be positive";
  let pool = match pool with Some p -> p | None -> Exec.Pool.get_global () in
  {
    cfg;
    pool;
    cache = Cache.create ~capacity:cfg.cache_capacity;
    latency = Obs.Hist.create "serve.latency_ns";
    metric_requests = Obs.Metrics.counter "serve.requests";
    metric_rejected = Obs.Metrics.counter "serve.rejected";
    request_count = 0;
    rejected_count = 0;
  }

let error_line ?solver ~code msg =
  Api.Response.to_line (Api.Response.error ?solver ~code msg)

let deadline_ns cfg =
  match cfg.deadline_s with None -> max_int | Some d -> int_of_float (d *. 1e9)

(* Checked at admission only, against the batch's start: a miss reached
   after the cut-off is rejected before any solver work, and no solve is
   ever interrupted.  [deadline_s = Some 0.] is therefore an admission
   test rather than a race. *)
let expired t ~t0 = Obs.Clock.now_ns () - t0 > deadline_ns t.cfg

let count_rejected t =
  t.rejected_count <- t.rejected_count + 1;
  Obs.Metrics.incr_counter t.metric_rejected

let count_request t =
  t.request_count <- t.request_count + 1;
  Obs.Metrics.incr_counter t.metric_requests

let record_latency t t0 = Obs.Hist.record t.latency (Obs.Clock.now_ns () - t0)

type pending = {
  p_index : int;
  p_raw : string;
  p_req : Api.Request.t;
  p_key : string;
  mutable p_followers : (int * string) list;  (* same-key repeats within the batch *)
}

(* A line that failed to decode as a request may be a control object.
   [Api.Request.of_json] rejects unknown fields, so a line with a
   "control" key never decodes as a request, and checking only the
   failures costs query lines nothing. *)
let control_of_line line =
  match Json.of_string line with
  | Ok (Json.Obj fields) -> (
      match List.assoc_opt "control" fields with
      | Some (Json.String c) -> Some c
      | _ -> None)
  | _ -> None

(* Solve the admitted misses (in admission order) on the pool, fill
   their answers and their followers', and cache the successes. *)
let solve t out misses =
  let solved =
    Exec.Pool.parallel_map_array ~workers:fanout t.pool
      (fun p -> (p, Api.Eval.eval p.p_req))
      (Array.of_list (List.rev misses))
  in
  Array.iter
    (fun (p, resp) ->
      let line = Api.Response.to_line resp in
      out.(p.p_index) <- line;
      if not (Api.Response.is_error resp) then begin
        Cache.insert t.cache ~key:p.p_key ~line;
        Cache.memoize t.cache ~raw:p.p_raw ~key:p.p_key
      end;
      List.iter
        (fun (j, raw) ->
          out.(j) <- line;
          if not (Api.Response.is_error resp) then Cache.memoize t.cache ~raw ~key:p.p_key)
        p.p_followers)
    solved

let handle_batch ?control t lines =
  let n = Array.length lines in
  let t0 = Obs.Clock.now_ns () in
  let out = Array.make n "" in
  let by_key : (string, pending) Hashtbl.t = Hashtbl.create 16 in
  let misses = ref [] in
  let admitted = ref 0 in
  let controls = ref 0 in
  for i = 0 to n - 1 do
    let raw = lines.(i) in
    (* Only decoded requests are memoized, so a memo hit is never a
       control line and is answered without parsing. *)
    match Cache.find_memo t.cache raw with
    | line ->
        count_request t;
        out.(i) <- line
    | exception Cache.Miss -> (
        match Api.Request.of_line raw with
        | Error msg -> (
            let name = match control with None -> None | Some _ -> control_of_line raw in
            match (control, name) with
            | Some answer, Some c ->
                (* Every earlier line's answer is final before a control
                   line is answered, so a pipelined client sees the
                   state its own earlier lines left. *)
                solve t out !misses;
                misses := [];
                Hashtbl.reset by_key;
                incr controls;
                out.(i) <- answer c
            | _ ->
                count_request t;
                out.(i) <- error_line ~solver:"api.parse" ~code:"bad_request" msg)
        | Ok req -> (
            count_request t;
            let key = Api.Fingerprint.of_request req in
            match Cache.find t.cache key with
            | line ->
                Cache.memoize t.cache ~raw ~key;
                out.(i) <- line
            | exception Cache.Miss -> (
                match Hashtbl.find_opt by_key key with
                | Some p -> p.p_followers <- (i, raw) :: p.p_followers
                | None ->
                    if !admitted >= t.cfg.queue_depth then begin
                      count_rejected t;
                      out.(i) <-
                        error_line ~code:"overloaded"
                          (Printf.sprintf "queue depth %d exceeded" t.cfg.queue_depth)
                    end
                    else if expired t ~t0 then begin
                      count_rejected t;
                      out.(i) <-
                        error_line ~code:"deadline"
                          "per-request deadline exceeded before solve"
                    end
                    else begin
                      incr admitted;
                      let p =
                        {
                          p_index = i;
                          p_raw = raw;
                          p_req = req;
                          p_key = key;
                          p_followers = [];
                        }
                      in
                      Hashtbl.add by_key key p;
                      misses := p :: !misses
                    end)))
  done;
  solve t out !misses;
  if !controls < n || n = 0 then record_latency t t0;
  out

(* The memo probe is the only single-line specialisation: it answers a
   byte-identical repeat without allocating.  Anything else goes down
   the batch path, so a line gets the same bytes (and the same
   counters) whichever entry point it arrives through. *)
let handle_line t raw =
  let t0 = Obs.Clock.now_ns () in
  match Cache.find_memo t.cache raw with
  | line ->
      count_request t;
      record_latency t t0;
      line
  | exception Cache.Miss -> (handle_batch t [| raw |]).(0)

let hits t = Cache.hits t.cache
let misses t = Cache.misses t.cache
let evictions t = Cache.evictions t.cache
let requests t = t.request_count

let stats_json t =
  let s = Obs.Hist.snapshot_one t.latency in
  Json.Obj
    [
      ("requests", Json.Int t.request_count);
      ("rejected", Json.Int t.rejected_count);
      ("cache_hits", Json.Int (Cache.hits t.cache));
      ("cache_misses", Json.Int (Cache.misses t.cache));
      ("cache_evictions", Json.Int (Cache.evictions t.cache));
      ("cache_size", Json.Int (Cache.size t.cache));
      ("cache_capacity", Json.Int (Cache.capacity t.cache));
      ( "latency_ns",
        Json.Obj
          [
            ("count", Json.Int s.Obs.Hist.count);
            ("mean", Json.Float (Obs.Hist.mean s));
            ("p50", Json.Int (Obs.Hist.quantile s 0.5));
            ("p99", Json.Int (Obs.Hist.quantile s 0.99));
            ("max", Json.Int s.Obs.Hist.max_v);
          ] );
    ]
