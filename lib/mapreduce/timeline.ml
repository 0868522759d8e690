let trace (outcome : Scheduler.outcome) =
  let t = Des.Trace.create () in
  List.iter
    (fun (a : Scheduler.assignment) ->
      let resource = Printf.sprintf "w%d" a.Scheduler.worker in
      if a.Scheduler.fetch_end > a.Scheduler.start then
        Des.Trace.record t ~resource ~start:a.Scheduler.start ~finish:a.Scheduler.fetch_end
          ~label:"f";
      Des.Trace.record t ~resource ~start:a.Scheduler.fetch_end ~finish:a.Scheduler.finish
        ~label:"x")
    outcome.Scheduler.assignments;
  t

let write_chrome ?max_events outcome path =
  Des.Trace.write_chrome ?max_events (trace outcome) path
