type interval = { start : float; finish : float; label : string }

type t = {
  table : (string, interval list ref) Hashtbl.t;
  mutable order : string list; (* reverse first-recorded order *)
  mutable makespan : float;
}

let create () = { table = Hashtbl.create 16; order = []; makespan = 0. }

let record t ~resource ~start ~finish ~label =
  if finish < start then invalid_arg "Trace.record: finish < start";
  let cell =
    match Hashtbl.find_opt t.table resource with
    | Some cell -> cell
    | None ->
        let cell = ref [] in
        Hashtbl.add t.table resource cell;
        t.order <- resource :: t.order;
        cell
  in
  cell := { start; finish; label } :: !cell;
  if finish > t.makespan then t.makespan <- finish

let resources t = List.rev t.order

let intervals t ~resource =
  match Hashtbl.find_opt t.table resource with
  | None -> []
  | Some cell -> List.rev !cell

let makespan t = t.makespan

let render_gantt ?(width = 72) t =
  let horizon = if t.makespan > 0. then t.makespan else 1. in
  let buf = Buffer.create 1024 in
  let name_width =
    List.fold_left (fun acc r -> max acc (String.length r)) 0 (resources t)
  in
  (* Truncation would drop the last column of a bar that ends an ulp
     before the horizon, as equal-finish schedules do by construction:
     a time within a relative 1e-12 of the horizon snaps to it. *)
  let column time =
    if time >= horizon *. (1. -. 1e-12) then width - 1
    else int_of_float (time /. horizon *. float_of_int (width - 1))
  in
  let row resource =
    let cells = Bytes.make width '.' in
    let paint iv =
      let mark = if String.length iv.label > 0 then iv.label.[0] else '#' in
      for col = column iv.start to column iv.finish do
        Bytes.set cells col mark
      done
    in
    List.iter paint (intervals t ~resource);
    Buffer.add_string buf (Printf.sprintf "%-*s |%s|\n" name_width resource (Bytes.to_string cells))
  in
  List.iter row (resources t);
  Buffer.add_string buf
    (Printf.sprintf "%-*s  0%*s%.4g\n" name_width "t" (width - 1) "" t.makespan);
  Buffer.contents buf

(* Render through the same Chrome trace-event builders as the runtime
   tracer, one Perfetto thread row per resource.  Simulated time is
   unitless; one simulated time unit maps to one second (1e6 µs) so
   short schedules stay readable in the viewer.

   [max_events] bounds the export: when the trace holds more intervals,
   a deterministic 1-in-k systematic sample is emitted instead (the
   stream order — resources in first-recorded order, intervals in
   recording order — is a pure function of the simulation, so the
   sampled artifact is byte-identical across runs).  Every export
   carries a "trace_stats" metadata event with explicit recorded /
   sampled_out / emitted counts, so truncation is never silent. *)
let to_chrome ?max_events t =
  let tids = List.mapi (fun i r -> (r, i + 1)) (resources t) in
  let n_intervals =
    List.fold_left (fun acc (r, _) -> acc + List.length (intervals t ~resource:r)) 0 tids
  in
  let k =
    match max_events with
    | Some budget -> Obs.Sample.stride ~budget n_intervals
    | None -> 1
  in
  let take = Obs.Sample.every k in
  let body =
    List.concat_map
      (fun (r, tid) ->
        List.filter_map
          (fun iv ->
            if Obs.Sample.keep take then
              let name = if iv.label = "" then r else iv.label in
              Some
                (Obs.Export.complete ~name ~tid ~ts_us:(iv.start *. 1e6)
                   ~dur_us:((iv.finish -. iv.start) *. 1e6))
            else None)
          (intervals t ~resource:r))
      tids
  in
  let stats =
    Obs.Export.sampling_stats ~recorded:n_intervals ~dropped:0
      ~sampled_out:(n_intervals - Obs.Sample.kept take)
      ~emitted:(List.length body)
      [ ("sample_every", Obs.Json.Int k) ]
  in
  let metadata =
    Obs.Export.process_name "nldl.sim"
    :: List.map (fun (r, tid) -> Obs.Export.thread_name ~tid r) tids
  in
  Obs.Json.List ((stats :: metadata) @ body)

let write_chrome ?max_events t path =
  Obs.Json.write_file path (to_chrome ?max_events t)
