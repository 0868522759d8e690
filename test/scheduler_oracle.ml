(* Frozen copy of [Mapreduce.Scheduler] as it stood before the
   Event_heap/index-based rewrite (PR 7).  [Test_fault] replays the
   fault/speculation matrix through both implementations and demands
   field-by-field identical outcomes — byte-identical floats included.
   Only the module paths, the metric names and the log source differ
   from the original; do not "improve" this file. *)

module Star = Platform.Star
module Processor = Platform.Processor
module Task = Mapreduce.Task

let src = Logs.Src.create "nldl.test.scheduler_oracle" ~doc:"Pre-PR7 scheduler oracle"

module Log = (val Logs.src_log src : Logs.LOG)

type policy = Fifo | Affinity
type speculation = Off | At_idle | Late of { threshold : float }

type config = {
  policy : policy;
  speculation : speculation;
  retry : Mapreduce.Scheduler.retry;
  fetch_timeout : float;
}

let default_config =
  {
    policy = Fifo;
    speculation = Off;
    retry = Mapreduce.Scheduler.default_retry;
    fetch_timeout = 0.5;
  }

type assignment = {
  task : int;
  worker : int;
  start : float;
  fetch_end : float;
  finish : float;
  fetched : float;
}

type outcome = {
  assignments : assignment list;
  completion : float array;
  winner : int array;
  makespan : float;
  busy_until : float array;
  communication : float;
  per_worker_comm : float array;
  per_worker_tasks : int array;
  duplicates : int;
  retries : int;
  crashes_survived : int;
  attempts : int array;
  idle_workers : int;
  unfinished : int list;
  wasted_work : float;
  fault_log : Fault.Clock.event list;
}

module Pending = struct
  type t = { next : int array; prev : int array; mutable count : int }
  (* Virtual head at index n. *)

  let create n =
    let next = Array.init (n + 1) (fun i -> if i = n then 0 else i + 1) in
    let prev = Array.init (n + 1) (fun i -> if i = 0 then n else i - 1) in
    { next; prev; count = n }

  let head t = Array.length t.next - 1
  let is_empty t = t.count = 0
  let first t = t.next.(head t)
  let iter t f =
    let h = head t in
    let rec loop i = if i <> h then begin f i; loop t.next.(i) end in
    loop (first t)

  let fold t ~init f =
    let h = head t in
    let rec loop acc i = if i = h then acc else loop (f acc i) t.next.(i) in
    loop init (first t)

  let remove t i =
    t.next.(t.prev.(i)) <- t.next.(i);
    t.prev.(t.next.(i)) <- t.prev.(i);
    t.count <- t.count + (-1)

  let add t i =
    let h = head t in
    t.prev.(i) <- t.prev.(h);
    t.next.(i) <- h;
    t.next.(t.prev.(h)) <- i;
    t.prev.(h) <- i;
    t.count <- t.count + 1
end

let missing_volume cache ~block_size task =
  Array.fold_left
    (fun acc id -> if Hashtbl.mem cache id then acc else acc +. block_size id)
    0. task.Task.data_ids

let m_assignments = Obs.Metrics.counter "test.oracle.assignments"
let m_speculative = Obs.Metrics.counter "test.oracle.speculative_copies"

type copy = {
  c_task : int;
  c_start : float;
  c_fetch_end : float;
  c_finish : float;
  c_compute : float;
  c_volume : float;
}

type ev =
  | Free of int
  | Done of int
  | Crash_e of Fault.Plan.crash
  | Recover_e of int
  | Retry_t of int

type wstate = W_idle | W_busy | W_down

let run ?(config = default_config) ?jitter ?(faults = Fault.Plan.none) star ~tasks
    ~block_size =
  let compute_factor =
    match jitter with
    | None -> fun () -> 1.
    | Some (rng, sigma) ->
        if sigma < 0. then invalid_arg "Scheduler.run: jitter sigma must be >= 0";
        fun () -> Numerics.Distributions.lognormal rng ~mu:0. ~sigma
  in
  let p = Star.size star in
  if Fault.Plan.p faults > p then
    invalid_arg "Scheduler.run: fault plan addresses more workers than the platform has";
  let retry = config.retry in
  if retry.max_attempts < 1 then
    invalid_arg "Scheduler.run: retry.max_attempts must be >= 1";
  if config.fetch_timeout < 0. then
    invalid_arg "Scheduler.run: fetch_timeout must be >= 0";
  (match config.speculation with
  | Late { threshold } when threshold <= 0. || threshold > 1. ->
      invalid_arg "Scheduler.run: Late threshold must be in (0, 1]"
  | _ -> ());
  let clock = Fault.Clock.create faults in
  let workers = Star.workers star in
  let n_tasks = Array.length tasks in
  let pending = Pending.create n_tasks in
  let caches = Array.init p (fun _ -> Hashtbl.create 64) in
  let completion = Array.make n_tasks infinity in
  let winner = Array.make n_tasks (-1) in
  let attempts = Array.make n_tasks 0 in
  let live_copies = Array.make n_tasks 0 in
  let retry_pending = Array.make n_tasks false in
  let barred = Hashtbl.create 8 in
  let busy_until = Array.make p 0. in
  let per_worker_comm = Array.make p 0. in
  let per_worker_tasks = Array.make p 0 in
  let wstate = Array.make p W_idle in
  let running : copy option array = Array.make p None in
  let fetch_attempt_no = Array.make p 0 in
  let assignments = ref [] in
  let duplicates = ref 0 in
  let total_comm = ref 0. in
  let retries = ref 0 in
  let crashes = ref 0 in
  let wasted = ref 0. in
  let queue : ev Event_queue.t = Event_queue.create ~initial_capacity:p () in
  List.iter
    (fun (c : Fault.Plan.crash) ->
      Event_queue.push queue ~priority:c.at (Crash_e c);
      match c.recovery with
      | Some r -> Event_queue.push queue ~priority:r (Recover_e c.worker)
      | None -> ())
    (Fault.Plan.crashes faults);
  for w = 0 to p - 1 do
    Event_queue.push queue ~priority:0. (Free w)
  done;
  let is_barred w i = Hashtbl.mem barred (w, i) in
  let enqueue_retry i now =
    if completion.(i) = infinity && live_copies.(i) = 0 && not retry_pending.(i)
    then begin
      retry_pending.(i) <- true;
      incr retries;
      let delay = Mapreduce.Scheduler.backoff_delay retry ~attempt:(min attempts.(i) 30) in
      Fault.Clock.record clock
        (Task_retry { task = i; attempt = attempts.(i); time = now +. delay });
      Event_queue.push queue ~priority:(now +. delay) (Retry_t i)
    end
  in
  let execute_copy w now i =
    attempts.(i) <- attempts.(i) + 1;
    live_copies.(i) <- live_copies.(i) + 1;
    wstate.(w) <- W_busy;
    let proc = workers.(w) in
    let volume = missing_volume caches.(w) ~block_size tasks.(i) in
    let transfer = Processor.transfer_time proc ~data:volume in
    let t_kill =
      match Fault.Plan.next_crash faults ~worker:w ~after:now with
      | Some c -> c.at
      | None -> infinity
    in
    let rec fetch t k =
      let a = fetch_attempt_no.(w) in
      fetch_attempt_no.(w) <- a + 1;
      if not (Fault.Plan.fetch_fails faults ~worker:w ~attempt:a) then `Fetched (t +. transfer)
      else begin
        let detected = t +. (config.fetch_timeout *. transfer) in
        if detected >= t_kill then `Doomed
        else begin
          Fault.Clock.record clock
            (Fetch_failure { worker = w; task = i; attempt = k; time = detected });
          incr retries;
          if k >= retry.max_attempts then `Exhausted detected
          else fetch (detected +. Mapreduce.Scheduler.backoff_delay retry ~attempt:k) (k + 1)
        end
      end
    in
    let fetch_result = if volume <= 0. then `Fetched now else fetch now 1 in
    let doom () =
      running.(w) <-
        Some
          {
            c_task = i;
            c_start = now;
            c_fetch_end = infinity;
            c_finish = infinity;
            c_compute = 0.;
            c_volume = volume;
          }
    in
    match fetch_result with
    | `Doomed -> doom ()
    | `Exhausted t_ex ->
        live_copies.(i) <- live_copies.(i) - 1;
        Hashtbl.replace barred (w, i) ();
        Fault.Clock.record clock (Quarantine { worker = w; task = i; time = t_ex });
        busy_until.(w) <- Float.max busy_until.(w) t_ex;
        enqueue_retry i t_ex;
        running.(w) <- None;
        Event_queue.push queue ~priority:t_ex (Free w)
    | `Fetched t_f ->
        if t_f >= t_kill then doom ()
        else begin
          Array.iter (fun id -> Hashtbl.replace caches.(w) id ()) tasks.(i).Task.data_ids;
          per_worker_comm.(w) <- per_worker_comm.(w) +. volume;
          total_comm := !total_comm +. volume;
          let d_c = compute_factor () *. Processor.compute_time proc ~work:tasks.(i).Task.cost in
          let finish = Fault.Plan.advance faults ~worker:w ~start:t_f ~duration:d_c in
          running.(w) <-
            Some
              {
                c_task = i;
                c_start = now;
                c_fetch_end = t_f;
                c_finish = finish;
                c_compute = d_c;
                c_volume = volume;
              };
          Obs.Metrics.incr_counter m_assignments;
          Log.debug (fun m ->
              m "t=%.4g: task %d -> worker %d (fetch %.4g, finish %.4g)" now i w volume
                finish);
          if finish < t_kill then Event_queue.push queue ~priority:finish (Done w)
        end
  in
  let select_task w =
    match config.policy with
    | Fifo ->
        let found = ref (-1) in
        (try
           Pending.iter pending (fun i ->
               if not (is_barred w i) then begin
                 found := i;
                 raise Exit
               end)
         with Exit -> ());
        !found
    | Affinity ->
        Pending.fold pending ~init:(-1, infinity) (fun (best, best_volume) i ->
            if is_barred w i then (best, best_volume)
            else
              let volume = missing_volume caches.(w) ~block_size tasks.(i) in
              if volume < best_volume then (i, volume) else (best, best_volume))
        |> fst
  in
  let nominal_eta w now i =
    let proc = workers.(w) in
    let volume = missing_volume caches.(w) ~block_size tasks.(i) in
    now
    +. Processor.transfer_time proc ~data:volume
    +. Processor.compute_time proc ~work:tasks.(i).Task.cost
  in
  let launch_speculative w now i =
    incr duplicates;
    Obs.Metrics.incr_counter m_speculative;
    Log.info (fun m -> m "t=%.4g: worker %d speculates on task %d" now w i);
    execute_copy w now i
  in
  let eligible_target w (c : copy) =
    completion.(c.c_task) = infinity && live_copies.(c.c_task) < 2
    && not (is_barred w c.c_task)
  in
  let speculate_at_idle w now =
    let target = ref (-1) and latest = ref now in
    for w' = 0 to p - 1 do
      match running.(w') with
      | Some c when c.c_finish > !latest && eligible_target w c ->
          latest := c.c_finish;
          target := c.c_task
      | _ -> ()
    done;
    if !target >= 0 && nominal_eta w now !target < !latest then
      launch_speculative w now !target
  in
  let speculate_late w now ~threshold =
    let n_running = ref 0 and rate_sum = ref 0. in
    let rates = Array.make p (0., infinity) in
    for w' = 0 to p - 1 do
      match running.(w') with
      | Some c ->
          let elapsed = now -. c.c_start in
          let progress =
            if now <= c.c_fetch_end || c.c_compute <= 0. then 0.
            else
              Float.min 1.
                (Fault.Plan.work_between faults ~worker:w' ~start:c.c_fetch_end
                   ~until:now
                /. c.c_compute)
          in
          let rate = if elapsed <= 0. then 0. else progress /. elapsed in
          let estimate =
            if progress <= 0. then infinity else c.c_start +. (elapsed /. progress)
          in
          rates.(w') <- (rate, estimate);
          incr n_running;
          rate_sum := !rate_sum +. rate
      | None -> ()
    done;
    if !n_running > 0 then begin
      let mean_rate = !rate_sum /. float_of_int !n_running in
      let target = ref (-1) and latest = ref now in
      for w' = 0 to p - 1 do
        match running.(w') with
        | Some c when eligible_target w c ->
            let rate, estimate = rates.(w') in
            if estimate > !latest && rate < (threshold *. mean_rate) then begin
              latest := estimate;
              target := c.c_task
            end
        | _ -> ()
      done;
      if !target >= 0 && nominal_eta w now !target < !latest then
        launch_speculative w now !target
    end
  in
  let dispatch w now =
    if wstate.(w) = W_idle then begin
      let assigned =
        if Pending.is_empty pending then false
        else
          match select_task w with
          | -1 -> false
          | i ->
              Pending.remove pending i;
              execute_copy w now i;
              true
      in
      if not assigned then
        match config.speculation with
        | Off -> ()
        | At_idle -> speculate_at_idle w now
        | Late { threshold } -> speculate_late w now ~threshold
    end
  in
  let handle now = function
    | Free w -> (
        match wstate.(w) with
        | W_idle -> dispatch w now
        | W_busy when running.(w) = None ->
            wstate.(w) <- W_idle;
            dispatch w now
        | _ -> ())
    | Done w -> (
        match running.(w) with
        | Some c when c.c_finish = now ->
            running.(w) <- None;
            wstate.(w) <- W_idle;
            let i = c.c_task in
            live_copies.(i) <- live_copies.(i) - 1;
            per_worker_tasks.(w) <- per_worker_tasks.(w) + 1;
            busy_until.(w) <- Float.max busy_until.(w) now;
            assignments :=
              {
                task = i;
                worker = w;
                start = c.c_start;
                fetch_end = c.c_fetch_end;
                finish = now;
                fetched = c.c_volume;
              }
              :: !assignments;
            if completion.(i) = infinity then begin
              completion.(i) <- now;
              winner.(i) <- w
            end
            else wasted := !wasted +. tasks.(i).Task.cost;
            dispatch w now
        | _ -> ())
    | Crash_e c ->
        let w = c.worker in
        if wstate.(w) <> W_down then begin
          incr crashes;
          Fault.Clock.record clock (Crash { worker = w; time = now });
          (match running.(w) with
          | Some cp ->
              let i = cp.c_task in
              live_copies.(i) <- live_copies.(i) - 1;
              (if cp.c_fetch_end < now && cp.c_compute > 0. then begin
                 let done_ =
                   Fault.Plan.work_between faults ~worker:w ~start:cp.c_fetch_end
                     ~until:now
                 in
                 wasted :=
                   !wasted +. (Float.min 1. (done_ /. cp.c_compute) *. tasks.(i).Task.cost)
               end);
              busy_until.(w) <- Float.max busy_until.(w) now;
              enqueue_retry i now
          | None -> ());
          running.(w) <- None;
          wstate.(w) <- W_down;
          Hashtbl.reset caches.(w)
        end
    | Recover_e w ->
        if wstate.(w) = W_down then begin
          Fault.Clock.record clock (Recover { worker = w; time = now });
          wstate.(w) <- W_idle;
          dispatch w now
        end
    | Retry_t i ->
        retry_pending.(i) <- false;
        if completion.(i) = infinity && live_copies.(i) = 0 then begin
          Pending.add pending i;
          let w = ref 0 in
          while !w < p && not (Pending.is_empty pending) do
            if wstate.(!w) = W_idle then dispatch !w now;
            incr w
          done
        end
  in
  let rec drain () =
    match Event_queue.pop queue with
    | None -> ()
    | Some (now, ev) ->
        handle now ev;
        drain ()
  in
  drain ();
  let makespan =
    Array.fold_left
      (fun acc c -> if Float.is_finite c then Float.max acc c else acc)
      0. completion
  in
  let unfinished =
    let acc = ref [] in
    for i = n_tasks - 1 downto 0 do
      if completion.(i) = infinity then acc := i :: !acc
    done;
    !acc
  in
  let idle_workers =
    Array.fold_left (fun acc n -> if n = 0 then acc + 1 else acc) 0 per_worker_tasks
  in
  {
    assignments = List.rev !assignments;
    completion;
    winner;
    makespan;
    busy_until;
    communication = !total_comm;
    per_worker_comm;
    per_worker_tasks;
    duplicates = !duplicates;
    retries = !retries;
    crashes_survived = !crashes;
    attempts;
    idle_workers;
    unfinished;
    wasted_work = !wasted;
    fault_log = Fault.Clock.events clock;
  }
