type event =
  | Crash of { worker : int; time : float }
  | Recover of { worker : int; time : float }
  | Fetch_failure of { worker : int; task : int; attempt : int; time : float }
  | Task_retry of { task : int; attempt : int; time : float }
  | Quarantine of { worker : int; task : int; time : float }

type t = {
  plan : Plan.t;
  mutable events : event list;  (* reverse recording order *)
}

let m_crashes = Obs.Metrics.counter "fault.crashes"
let m_recoveries = Obs.Metrics.counter "fault.recoveries"
let m_fetch_failures = Obs.Metrics.counter "fault.fetch_failures"
let m_retries = Obs.Metrics.counter "fault.task_retries"
let m_quarantines = Obs.Metrics.counter "fault.quarantines"

let create plan = { plan; events = [] }
let plan t = t.plan

let record t ev =
  t.events <- ev :: t.events;
  match ev with
  | Crash _ ->
      Obs.Metrics.incr_counter m_crashes;
      Obs.Trace.instant "fault.crash"
  | Recover _ ->
      Obs.Metrics.incr_counter m_recoveries;
      Obs.Trace.instant "fault.recover"
  | Fetch_failure _ ->
      Obs.Metrics.incr_counter m_fetch_failures;
      Obs.Trace.instant "fault.fetch_failure"
  | Task_retry _ ->
      Obs.Metrics.incr_counter m_retries;
      Obs.Trace.instant "fault.task_retry"
  | Quarantine _ ->
      Obs.Metrics.incr_counter m_quarantines;
      Obs.Trace.instant "fault.quarantine"

let events t = List.rev t.events
