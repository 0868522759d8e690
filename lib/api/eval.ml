let solver_name (r : Request.t) =
  match r.kind with
  | Request.Multi_load _ -> "dlt.steady_state"
  | Request.Schedule | Request.Ratio | Request.Plan ->
      if Dlt.Cost_model.is_linear r.workload then "dlt.linear"
      else "dlt.nonlinear.newton"

let allocation (r : Request.t) star =
  if Dlt.Cost_model.is_linear r.workload then
    match r.comm_model with
    | Dlt.Schedule.Parallel ->
        ( Dlt.Linear.parallel_allocation star ~total:r.total,
          Dlt.Linear.parallel_makespan star ~total:r.total )
    | Dlt.Schedule.One_port ->
        ( Dlt.Linear.one_port_allocation star ~total:r.total,
          Dlt.Linear.one_port_makespan star ~total:r.total )
  else Dlt.Nonlinear.equal_finish_allocation r.comm_model star r.workload ~total:r.total

let schedule (r : Request.t) star =
  if Dlt.Cost_model.is_linear r.workload then
    Dlt.Linear.schedule r.comm_model star ~total:r.total
  else Dlt.Nonlinear.schedule r.comm_model star r.workload ~total:r.total

let worker_rows total (s : Dlt.Schedule.t) =
  Array.map
    (fun (e : Dlt.Schedule.entry) ->
      {
        Response.speed = e.proc.Platform.Processor.speed;
        data = e.data;
        fraction = e.data /. total;
        comm_start = e.comm_start;
        comm_end = e.comm_end;
        compute_start = e.compute_start;
        compute_end = e.compute_end;
      })
    s.Dlt.Schedule.entries

let solve_exn (r : Request.t) =
  let provenance = { Response.solver = solver_name r } in
  let body =
    match r.kind with
    | Request.Schedule ->
        let s = schedule r (Request.star r) in
        Response.Schedule
          { makespan = s.Dlt.Schedule.makespan; workers = worker_rows r.total s }
    | Request.Ratio ->
        let star = Request.star r in
        let alloc, makespan = allocation r star in
        let ideal = Dlt.Bounds.ideal_makespan star r.workload ~total:r.total in
        Response.Ratio
          {
            makespan;
            ideal;
            ratio = makespan /. ideal;
            done_fraction =
              Dlt.Fraction.done_fraction r.workload ~allocation:alloc ~total:r.total;
          }
    | Request.Plan ->
        let star = Request.star r in
        let alloc, makespan = allocation r star in
        Response.Plan
          {
            makespan;
            allocation = alloc;
            fractions = Array.map (fun n -> n /. r.total) alloc;
          }
    | Request.Multi_load loads ->
        let star = Request.star r in
        let solution =
          match r.comm_model with
          | Dlt.Schedule.Parallel -> Dlt.Steady_state.parallel star
          | Dlt.Schedule.One_port -> Dlt.Steady_state.one_port star
        in
        (* Greedy admission in request order: each load receives as much
           of the remaining steady-state capacity as it asks for. *)
        let capacity = solution.Dlt.Steady_state.throughput in
        let remaining = ref capacity in
        let admitted =
          Array.map
            (fun demand ->
              let granted = Float.min demand !remaining in
              remaining := !remaining -. granted;
              granted)
            loads
        in
        let used = capacity -. !remaining in
        Response.Multi_load
          {
            throughput = capacity;
            rates = solution.Dlt.Steady_state.rates;
            admitted;
            utilization = (if capacity > 0. then used /. capacity else 0.);
          }
  in
  { Response.body; provenance }

(* The one place a solver exception becomes a typed answer: a request
   that validates but drives a solver out of range (a makespan it cannot
   bracket, a bandwidth that underflows) comes back as a
   ["solver_failure"] line on every surface, never as a crash. *)
let solve r =
  try solve_exn r
  with e ->
    Response.error ~solver:(solver_name r) ~code:"solver_failure" (Printexc.to_string e)

let eval r =
  match Request.validate r with
  | Ok () -> solve r
  | Error msg -> Response.error ~solver:"api.validate" ~code:"invalid_request" msg

let eval_line line =
  match Request.of_line line with
  | Ok r -> solve r
  | Error msg -> Response.error ~solver:"api.parse" ~code:"bad_request" msg
