(* Exporters: Chrome trace-event JSON (loadable in Perfetto and
   about://tracing) for the span tracer, and a flat JSON rendering of
   the metrics snapshot.  The building blocks ([duration], [complete],
   [thread_name], ...) are exposed so other timeline sources — the
   simulated [Des.Trace] Gantt in particular — can render through the
   same format.

   Every trace export carries a "trace_stats" metadata event with
   explicit recorded / ring_dropped / sampled_out / emitted counts, so
   a bounded artifact can never silently pretend to be complete. *)

(* Trace-event JSON array format: a top-level list of event objects.
   Timestamps ("ts") are in microseconds. *)

let event_obj ~name ~ph ~tid ~ts_us extra =
  Json.Obj
    ([
       ("name", Json.String name);
       ("ph", Json.String ph);
       ("ts", Json.Float ts_us);
       ("pid", Json.Int 1);
       ("tid", Json.Int tid);
     ]
    @ extra)

let duration ~phase ~name ~tid ~ts_us =
  event_obj ~name ~ph:(match phase with `Begin -> "B" | `End -> "E") ~tid ~ts_us []

let complete ~name ~tid ~ts_us ~dur_us =
  event_obj ~name ~ph:"X" ~tid ~ts_us [ ("dur", Json.Float dur_us) ]

let instant ~name ~tid ~ts_us =
  event_obj ~name ~ph:"i" ~tid ~ts_us [ ("s", Json.String "t") ]

let process_name name =
  Json.Obj
    [
      ("name", Json.String "process_name");
      ("ph", Json.String "M");
      ("pid", Json.Int 1);
      ("args", Json.Obj [ ("name", Json.String name) ]);
    ]

let thread_name ~tid name =
  Json.Obj
    [
      ("name", Json.String "thread_name");
      ("ph", Json.String "M");
      ("pid", Json.Int 1);
      ("tid", Json.Int tid);
      ("args", Json.Obj [ ("name", Json.String name) ]);
    ]

let sampling_stats ~recorded ~dropped ~sampled_out ~emitted extra =
  Json.Obj
    [
      ("name", Json.String "trace_stats");
      ("ph", Json.String "M");
      ("pid", Json.Int 1);
      ( "args",
        Json.Obj
          ([
             ("recorded", Json.Int recorded);
             ("dropped", Json.Int dropped);
             ("sampled_out", Json.Int sampled_out);
             ("emitted", Json.Int emitted);
           ]
          @ extra) );
    ]

(* --- span tracer export ------------------------------------------------- *)

let ring_stats_fields () =
  [
    ( "ring_dropped_per_domain",
      Json.Obj
        (List.map
           (fun (d, n) -> (string_of_int d, Json.Int n))
           (Trace.dropped_by_domain ())) );
  ]

(* Pair B/E events into complete spans per domain (spans nest, so a
   per-domain stack suffices).  Orphans — an E whose B was lost to ring
   wrap, or a B still open — cannot be sampled as spans; they are
   counted explicitly, never silently discarded. *)
let pair_spans evs =
  let stacks = Hashtbl.create 8 in
  let spans = ref [] and instants = ref [] and unpaired = ref 0 in
  List.iter
    (fun (e : Trace.event) ->
      match e.kind with
      | Trace.Instant -> instants := e :: !instants
      | Trace.Begin ->
          let st = try Hashtbl.find stacks e.domain with Not_found -> [] in
          Hashtbl.replace stacks e.domain (e :: st)
      | Trace.End -> (
          match Hashtbl.find_opt stacks e.domain with
          | Some (b :: rest) when b.Trace.name = e.name ->
              Hashtbl.replace stacks e.domain rest;
              spans := (b, e) :: !spans
          | _ -> incr unpaired))
    evs;
  Hashtbl.iter (fun _ st -> unpaired := !unpaired + List.length st) stacks;
  (List.rev !spans, List.rev !instants, !unpaired)

let trace_json ?max_events () =
  let evs = Trace.events () in
  let recorded = Trace.recorded () in
  let ring_dropped = Trace.dropped () in
  let n_evs = List.length evs in
  let domains =
    List.sort_uniq compare (List.map (fun (e : Trace.event) -> e.domain) evs)
  in
  (* Rebase timestamps so the trace starts near 0 (raw monotonic ns
     since boot would cost double precision for no benefit). *)
  let t0 = List.fold_left (fun acc (e : Trace.event) -> min acc e.ts_ns) max_int evs in
  let us ts_ns = float_of_int (ts_ns - t0) /. 1e3 in
  let metadata =
    process_name "nldl"
    :: List.map
         (fun d ->
           thread_name ~tid:d
             (if d = 0 then "domain 0 (main)" else Printf.sprintf "domain %d" d))
         domains
  in
  let body, sampled_out, extra_stats =
    match max_events with
    | Some budget when Sample.stride ~budget n_evs > 1 ->
        (* Over budget: collapse B/E pairs into "X" complete events
           (each independent, so systematic sampling cannot break
           nesting) and 1-in-k sample spans and instants alike. *)
        let spans, instants, unpaired = pair_spans evs in
        let candidates = List.length spans + List.length instants in
        let k = Sample.stride ~budget candidates in
        let take = Sample.every k in
        let body =
          List.filter_map
            (fun ((b : Trace.event), (e : Trace.event)) ->
              if Sample.keep take then
                Some
                  (complete ~name:b.name ~tid:b.domain ~ts_us:(us b.ts_ns)
                     ~dur_us:(float_of_int (e.ts_ns - b.ts_ns) /. 1e3))
              else None)
            spans
          @ List.filter_map
              (fun (e : Trace.event) ->
                if Sample.keep take then
                  Some (instant ~name:e.name ~tid:e.domain ~ts_us:(us e.ts_ns))
                else None)
              instants
        in
        ( body,
          candidates - Sample.kept take,
          [ ("sample_every", Json.Int k); ("unpaired", Json.Int unpaired) ] )
    | _ ->
        let body =
          List.map
            (fun (e : Trace.event) ->
              let ts_us = us e.ts_ns in
              match e.kind with
              | Trace.Begin -> duration ~phase:`Begin ~name:e.name ~tid:e.domain ~ts_us
              | Trace.End -> duration ~phase:`End ~name:e.name ~tid:e.domain ~ts_us
              | Trace.Instant -> instant ~name:e.name ~tid:e.domain ~ts_us)
            evs
        in
        (body, 0, [])
  in
  let stats =
    sampling_stats ~recorded ~dropped:ring_dropped ~sampled_out
      ~emitted:(List.length body)
      (ring_stats_fields () @ extra_stats)
  in
  Json.List ((stats :: metadata) @ body)

let write_trace ?max_events path = Json.write_file path (trace_json ?max_events ())

(* --- metrics export ----------------------------------------------------- *)

let quantile_points = [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99) ]

let log2_hist_json (s : Hist.summary) =
  let nonzero = ref [] in
  Array.iteri
    (fun i c ->
      if c > 0 then
        nonzero :=
          Json.List
            [ Json.Int (Hist.bucket_lo i); Json.Int (Hist.bucket_hi i); Json.Int c ]
          :: !nonzero)
    s.Hist.counts;
  Json.Obj
    [
      ("count", Json.Int s.Hist.count);
      ("sum", Json.Int s.Hist.sum);
      ("min", Json.Int s.Hist.min_v);
      ("max", Json.Int s.Hist.max_v);
      ("mean", Json.Float (Hist.mean s));
      ( "quantiles",
        Json.Obj
          (List.map
             (fun (k, q) -> (k, Json.Int (Hist.quantile s q)))
             quantile_points) );
      ("buckets", Json.List (List.rev !nonzero));
    ]

let trace_stats_json () =
  Json.Obj
    [
      ("recorded", Json.Int (Trace.recorded ()));
      ("dropped", Json.Int (Trace.dropped ()));
      ( "dropped_per_domain",
        Json.Obj
          (List.map
             (fun (d, n) -> (string_of_int d, Json.Int n))
             (Trace.dropped_by_domain ())) );
    ]

let metrics_json () =
  let s = Metrics.snapshot () in
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) s.Metrics.counters));
      ( "gauges",
        Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) s.Metrics.gauges) );
      ( "hists",
        Json.Obj
          (List.map
             (fun (sum : Hist.summary) -> (sum.Hist.s_name, log2_hist_json sum))
             (Hist.snapshot ())) );
      ("trace", trace_stats_json ());
    ]

let write_metrics path = Json.write_file path (metrics_json ())
