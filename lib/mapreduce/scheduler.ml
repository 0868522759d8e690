module Star = Platform.Star
module Processor = Platform.Processor

let src = Logs.Src.create "nldl.mapreduce" ~doc:"MapReduce map-phase scheduler"

module Log = (val Logs.src_log src : Logs.LOG)

type policy = Fifo | Affinity
type speculation = Off | At_idle | Late of { threshold : float }

type retry = { max_attempts : int; base_delay : float; max_delay : float }

let default_retry = { max_attempts = 3; base_delay = 0.5; max_delay = 8. }

let backoff_delay r ~attempt =
  if attempt < 1 then invalid_arg "Scheduler.backoff_delay: attempt must be >= 1";
  if r.base_delay <= 0. then 0.
  else Float.min r.max_delay (r.base_delay *. Float.pow 2. (float_of_int (attempt - 1)))

type config = {
  policy : policy;
  speculation : speculation;
  retry : retry;
  fetch_timeout : float;
}

let default_config =
  { policy = Fifo; speculation = Off; retry = default_retry; fetch_timeout = 0.5 }

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
  events_processed : int;
  fault_log : Fault.Clock.event list;
}

(* Doubly-linked list over task indices for O(1) removal/re-insertion
   and O(pending) scans during affinity selection. *)
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

  let remove t i =
    t.next.(t.prev.(i)) <- t.next.(i);
    t.prev.(t.next.(i)) <- t.prev.(i);
    t.count <- t.count + (-1)

  (* Append at the tail (re-enqueued tasks go behind fresher pending
     work, like Hadoop's re-execution queue). *)
  let add t i =
    let h = head t in
    t.prev.(i) <- t.prev.(h);
    t.next.(i) <- h;
    t.next.(t.prev.(h)) <- i;
    t.prev.(h) <- i;
    t.count <- t.count + 1
end

(* Open-addressing set of non-negative ints: the flat replacement for
   the per-worker block-cache [Hashtbl]s and the [(worker, task)]
   quarantine table.  [Hashtbl.mem cache (w, i)] allocated a tuple per
   membership query and the caches churned a bucket list per insert —
   per *event* costs at 10^5-worker scale.  Linear probing over a
   power-of-two [int array] with [min_int] as the empty marker does
   both in zero allocations.  Only membership is ever queried, so
   iteration order (the one observable difference from Hashtbl) cannot
   leak into outcomes. *)
module Intset = struct
  type t = { mutable slots : int array; mutable mask : int; mutable count : int }

  let empty_slot = min_int

  let create cap =
    let cap = max 8 cap in
    let size = ref 8 in
    while !size < cap do
      size := !size * 2
    done;
    { slots = Array.make !size empty_slot; mask = !size - 1; count = 0 }

  (* Fibonacci-style multiplicative mix; the low bits of [x * odd] are a
     bijection, so sequential block ids stay collision-free. *)
  let slot_of t x = x * 0x9E3779B9 land t.mask

  let mem t x =
    let slots = t.slots in
    let j = ref (slot_of t x) in
    let found = ref false in
    let probing = ref true in
    while !probing do
      let v = slots.(!j) in
      if v = x then begin
        found := true;
        probing := false
      end
      else if v = empty_slot then probing := false
      else j := (!j + 1) land t.mask
    done;
    !found

  let rec add t x =
    if 2 * (t.count + 1) > Array.length t.slots then grow t;
    let slots = t.slots in
    let j = ref (slot_of t x) in
    let probing = ref true in
    while !probing do
      let v = slots.(!j) in
      if v = x then probing := false
      else if v = empty_slot then begin
        slots.(!j) <- x;
        t.count <- t.count + 1;
        probing := false
      end
      else j := (!j + 1) land t.mask
    done

  and grow t =
    let old = t.slots in
    t.slots <- Array.make (2 * Array.length old) empty_slot;
    t.mask <- Array.length t.slots - 1;
    t.count <- 0;
    Array.iter (fun v -> if v <> empty_slot then add t v) old

  let reset t =
    if t.count > 0 then begin
      Array.fill t.slots 0 (Array.length t.slots) empty_slot;
      t.count <- 0
    end
end

let m_assignments = Obs.Metrics.counter "mapreduce.assignments"
let m_speculative = Obs.Metrics.counter "mapreduce.speculative_copies"

(* Per-event-type counters, flushed once per [run] from a flat local
   tally (a DLS-backed [Metrics.add] per event would be measurable at
   10^6-event scale; one add per tag per run is not). *)
let m_ev_free = Obs.Metrics.counter "mapreduce.events.free"
let m_ev_done = Obs.Metrics.counter "mapreduce.events.done"
let m_ev_crash = Obs.Metrics.counter "mapreduce.events.crash"
let m_ev_recover = Obs.Metrics.counter "mapreduce.events.recover"
let m_ev_retry = Obs.Metrics.counter "mapreduce.events.retry"
let g_heap_hwm = Obs.Metrics.gauge "mapreduce.heap_hwm"

(* Simulated-time distributions (recorded as integer nanoseconds of sim
   time: 1 sim unit = 1 s) and the sampled heap depth.  All recording
   is gated on one [obs_on] boolean hoisted to the top of [run], with
   shards cached outside the loop, so the disabled event loop is
   byte-for-byte the uninstrumented one. *)
let h_heap = Obs.Hist.create "mapreduce.heap_size"
let h_wait = Obs.Hist.create "mapreduce.task_wait_s"
let h_service = Obs.Hist.create "mapreduce.task_service_s"
let h_fetch = Obs.Hist.create "mapreduce.fetch_s"
let h_retry_delay = Obs.Hist.create "mapreduce.retry_delay_s"

let heap_sample_mask = 63

(* Events live in the [Des.Event_heap] as ints: tag in the low 3 bits,
   worker / task / crash-plan index above.  Same five cases as the old
   boxed [ev] variant, minus the allocation per event. *)
let tag_free = 0 (* worker w asks for work *)
let tag_done = 1 (* worker w's copy finishes *)
let tag_crash = 2 (* crash_at.(idx) fires *)
let tag_recover = 3 (* worker w comes back up *)
let tag_retry = 4 (* task i becomes pending again *)

let[@inline] encode tag arg = (arg lsl 3) lor tag

(* Worker states, kept as bare ints in a flat array. *)
let w_idle = 0
let w_busy = 1
let w_down = 2

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
  let caches = Array.init p (fun _ -> Intset.create 64) in
  let completion = Array.make n_tasks infinity in
  let winner = Array.make n_tasks (-1) in
  let attempts = Array.make n_tasks 0 in
  let live_copies = Array.make n_tasks 0 in
  let retry_pending = Array.make n_tasks false in
  (* Quarantined (worker, task) pairs, keyed [w * n_tasks + i]. *)
  let barred = Intset.create 8 in
  let busy_until = Array.make p 0. in
  let per_worker_comm = Array.make p 0. in
  let per_worker_tasks = Array.make p 0 in
  let wstate = Array.make p w_idle in
  (* The in-flight copy of each worker, struct-of-arrays: [run_task] is
     -1 when the worker runs nothing; a doomed copy (dies mid-fetch at
     the next crash) has fetch_end = finish = infinity and compute = 0,
     exactly like the old [copy] record. *)
  let run_task = Array.make p (-1) in
  let run_start = Array.make p 0. in
  let run_fetch_end = Array.make p 0. in
  let run_finish = Array.make p 0. in
  let run_compute = Array.make p 0. in
  let run_volume = Array.make p 0. in
  let fetch_attempt_no = Array.make p 0 in
  (* Completed copies, accumulated into growable flat columns and
     converted to the [assignment list] once at the end. *)
  let a_cap = ref 256 in
  let a_n = ref 0 in
  let a_task = ref (Array.make !a_cap 0) in
  let a_worker = ref (Array.make !a_cap 0) in
  let a_start = ref (Array.make !a_cap 0.) in
  let a_fetch_end = ref (Array.make !a_cap 0.) in
  let a_finish = ref (Array.make !a_cap 0.) in
  let a_fetched = ref (Array.make !a_cap 0.) in
  let duplicates = ref 0 in
  let retries = ref 0 in
  let crashes = ref 0 in
  let events_processed = ref 0 in
  (* Float accumulators and scratch live in 1-slot float arrays (unboxed
     load/store); [ref 0.] or a mutable float field in a mixed record
     would box on every update. *)
  let total_comm = [| 0. |] in
  let wasted = [| 0. |] in
  let mv = [| 0. |] in (* missing_volume result *)
  let ft = [| 0. |] in (* fetch-loop clock *)
  let bv = [| infinity |] in (* affinity best volume *)
  let lat = [| 0. |] in (* speculation latest finish *)
  let rate_sum = [| 0. |] in
  (* Per-worker progress observations for LATE, reused across calls;
     entries are only read for workers with a running copy, which are
     exactly the entries the observation loop wrote. *)
  let rate_arr = Array.make p 0. in
  let est_arr = Array.make p 0. in
  (* Observability: one boolean read per run gates every record; the
     histogram shards are hoisted here so each enabled record is a few
     domain-local stores.  [avail] (when-did-the-task-become-runnable,
     for wait-time distributions) only exists when observing. *)
  let obs_on = Obs.Hist.enabled () || Obs.Metrics.enabled () in
  let evt_counts = Array.make 8 0 in
  let sh_heap = Obs.Hist.shard h_heap in
  let sh_wait = Obs.Hist.shard h_wait in
  let sh_service = Obs.Hist.shard h_service in
  let sh_fetch = Obs.Hist.shard h_fetch in
  let sh_retry_delay = Obs.Hist.shard h_retry_delay in
  let avail = if obs_on then Array.make n_tasks 0. else [||] in
  let[@inline] rec_s sh x = Obs.Hist.record_into sh (int_of_float (x *. 1e9)) in
  let queue = Des.Event_heap.create ~initial_capacity:(max 16 p) () in
  (* Plan events first: a crash at the same instant as an assignment
     opportunity wins the FIFO tie, so "crash before first assignment"
     means exactly that. *)
  let crash_arr = Array.of_list (Fault.Plan.crashes faults) in
  Array.iteri
    (fun idx (c : Fault.Plan.crash) ->
      Des.Event_heap.push queue ~priority:c.at (encode tag_crash idx);
      match c.recovery with
      | Some r -> Des.Event_heap.push queue ~priority:r (encode tag_recover c.worker)
      | None -> ())
    crash_arr;
  for w = 0 to p - 1 do
    Des.Event_heap.push queue ~priority:0. (encode tag_free w)
  done;
  let is_barred w i = Intset.mem barred ((w * n_tasks) + i) in
  (* Sum of block sizes the worker has not cached, into [mv.(0)]; same
     left-to-right order as the old [Array.fold_left]. *)
  let missing_volume w i =
    let cache = caches.(w) in
    let ids = tasks.(i).Task.data_ids in
    mv.(0) <- 0.;
    for k = 0 to Array.length ids - 1 do
      let id = ids.(k) in
      if not (Intset.mem cache id) then mv.(0) <- mv.(0) +. block_size id
    done
  in
  let enqueue_retry i now =
    if completion.(i) = infinity && live_copies.(i) = 0 && not retry_pending.(i)
    then begin
      retry_pending.(i) <- true;
      incr retries;
      let delay = backoff_delay retry ~attempt:(min attempts.(i) 30) in
      if obs_on then rec_s sh_retry_delay delay;
      Fault.Clock.record clock
        (Task_retry { task = i; attempt = attempts.(i); time = now +. delay });
      Des.Event_heap.push queue ~priority:(now +. delay) (encode tag_retry i)
    end
  in
  let execute_copy w now i =
    if obs_on then rec_s sh_wait (now -. avail.(i));
    attempts.(i) <- attempts.(i) + 1;
    live_copies.(i) <- live_copies.(i) + 1;
    wstate.(w) <- w_busy;
    let proc = workers.(w) in
    missing_volume w i;
    let volume = mv.(0) in
    let transfer = Processor.transfer_time proc ~data:volume in
    let t_kill =
      match Fault.Plan.next_crash faults ~worker:w ~after:now with
      | Some c -> c.at
      | None -> infinity
    in
    (* Fetch phase: each attempt consumes one per-worker counter value
       (deterministic regardless of history); a failed attempt occupies
       the link for [fetch_timeout *. transfer] before it is detected,
       then backs off.  Events past the worker's next crash are not
       recorded — the crash kills the copy first.  Iterative version of
       the old recursive [fetch], clock carried in [ft.(0)]:
       0 = fetched (at ft.(0)), 1 = doomed, 2 = exhausted (at ft.(0)). *)
    let fkind = ref 0 in
    if volume <= 0. then ft.(0) <- now
    else begin
      ft.(0) <- now;
      let k = ref 1 in
      let deciding = ref true in
      while !deciding do
        let a = fetch_attempt_no.(w) in
        fetch_attempt_no.(w) <- a + 1;
        if not (Fault.Plan.fetch_fails faults ~worker:w ~attempt:a) then begin
          ft.(0) <- ft.(0) +. transfer;
          deciding := false
        end
        else begin
          let detected = ft.(0) +. (config.fetch_timeout *. transfer) in
          if detected >= t_kill then begin
            fkind := 1;
            deciding := false
          end
          else begin
            Fault.Clock.record clock
              (Fetch_failure { worker = w; task = i; attempt = !k; time = detected });
            incr retries;
            if !k >= retry.max_attempts then begin
              fkind := 2;
              ft.(0) <- detected;
              deciding := false
            end
            else begin
              ft.(0) <- detected +. backoff_delay retry ~attempt:!k;
              incr k
            end
          end
        end
      done
    end;
    let doom () =
      (* the crash at [t_kill] finds this copy in flight and kills it *)
      run_task.(w) <- i;
      run_start.(w) <- now;
      run_fetch_end.(w) <- infinity;
      run_finish.(w) <- infinity;
      run_compute.(w) <- 0.;
      run_volume.(w) <- volume
    in
    if !fkind = 1 then doom ()
    else if !fkind = 2 then begin
      (* fetch retries exhausted: quarantine the (worker, task) pair,
         hand the task back, free the worker at [t_ex] *)
      let t_ex = ft.(0) in
      live_copies.(i) <- live_copies.(i) - 1;
      Intset.add barred ((w * n_tasks) + i);
      Fault.Clock.record clock (Quarantine { worker = w; task = i; time = t_ex });
      busy_until.(w) <- Float.max busy_until.(w) t_ex;
      enqueue_retry i t_ex;
      run_task.(w) <- -1;
      Des.Event_heap.push queue ~priority:t_ex (encode tag_free w)
    end
    else begin
      let t_f = ft.(0) in
      if t_f >= t_kill then doom ()
      else begin
        if obs_on then rec_s sh_fetch (t_f -. now);
        let cache = caches.(w) in
        let ids = tasks.(i).Task.data_ids in
        for k = 0 to Array.length ids - 1 do
          Intset.add cache ids.(k)
        done;
        per_worker_comm.(w) <- per_worker_comm.(w) +. volume;
        total_comm.(0) <- total_comm.(0) +. volume;
        let d_c = compute_factor () *. Processor.compute_time proc ~work:tasks.(i).Task.cost in
        let finish = Fault.Plan.advance faults ~worker:w ~start:t_f ~duration:d_c in
        run_task.(w) <- i;
        run_start.(w) <- now;
        run_fetch_end.(w) <- t_f;
        run_finish.(w) <- finish;
        run_compute.(w) <- d_c;
        run_volume.(w) <- volume;
        Obs.Metrics.incr_counter m_assignments;
        Log.debug (fun m ->
            m "t=%.4g: task %d -> worker %d (fetch %.4g, finish %.4g)" now i w volume
              finish);
        if finish < t_kill then
          Des.Event_heap.push queue ~priority:finish (encode tag_done w)
        (* else: the crash event at [t_kill] kills the copy *)
      end
    end
  in
  let select_task w =
    let h = Pending.head pending in
    match config.policy with
    | Fifo ->
        (* first pending task this worker is not quarantined from *)
        let found = ref (-1) in
        let i = ref (Pending.first pending) in
        while !found < 0 && !i <> h do
          if not (is_barred w !i) then found := !i else i := pending.next.(!i)
        done;
        !found
    | Affinity ->
        (* minimum missing volume; strict [<] keeps the first (oldest)
           minimum, like the old fold *)
        let best = ref (-1) in
        bv.(0) <- infinity;
        let i = ref (Pending.first pending) in
        while !i <> h do
          if not (is_barred w !i) then begin
            missing_volume w !i;
            if mv.(0) < bv.(0) then begin
              best := !i;
              bv.(0) <- mv.(0)
            end
          end;
          i := pending.next.(!i)
        done;
        !best
  in
  (* Clairvoyant eta of a fresh copy on [w], used to decide whether a
     speculative duplicate is worth launching (nominal speed: the
     scheduler cannot see the jitter of a copy it has not started). *)
  let nominal_eta w now i =
    let proc = workers.(w) in
    missing_volume w i;
    now
    +. Processor.transfer_time proc ~data:mv.(0)
    +. Processor.compute_time proc ~work:tasks.(i).Task.cost
  in
  let launch_speculative w now i =
    incr duplicates;
    Obs.Metrics.incr_counter m_speculative;
    Log.info (fun m -> m "t=%.4g: worker %d speculates on task %d" now w i);
    execute_copy w now i
  in
  let eligible_target w i =
    completion.(i) = infinity && live_copies.(i) < 2 && not (is_barred w i)
  in
  (* Hadoop-style: duplicate the task with the latest realized finish
     if this worker can beat it. *)
  let speculate_at_idle w now =
    let target = ref (-1) in
    lat.(0) <- now;
    for w' = 0 to p - 1 do
      let i = run_task.(w') in
      if i >= 0 && run_finish.(w') > lat.(0) && eligible_target w i then begin
        lat.(0) <- run_finish.(w');
        target := i
      end
    done;
    if !target >= 0 && nominal_eta w now !target < lat.(0) then
      launch_speculative w now !target
  in
  (* LATE: observe fractional progress, extrapolate the finish, and
     duplicate only slow-rate outliers this worker would beat. *)
  let speculate_late w now ~threshold =
    let n_running = ref 0 in
    rate_sum.(0) <- 0.;
    for w' = 0 to p - 1 do
      if run_task.(w') >= 0 then begin
        let elapsed = now -. run_start.(w') in
        let progress =
          if now <= run_fetch_end.(w') || run_compute.(w') <= 0. then 0.
          else
            Float.min 1.
              (Fault.Plan.work_between faults ~worker:w' ~start:run_fetch_end.(w')
                 ~until:now
              /. run_compute.(w'))
        in
        let rate = if elapsed <= 0. then 0. else progress /. elapsed in
        let estimate =
          if progress <= 0. then infinity else run_start.(w') +. (elapsed /. progress)
        in
        rate_arr.(w') <- rate;
        est_arr.(w') <- estimate;
        incr n_running;
        rate_sum.(0) <- rate_sum.(0) +. rate
      end
    done;
    if !n_running > 0 then begin
      let mean_rate = rate_sum.(0) /. float_of_int !n_running in
      let target = ref (-1) in
      lat.(0) <- now;
      for w' = 0 to p - 1 do
        let i = run_task.(w') in
        if i >= 0 && eligible_target w i then
          if est_arr.(w') > lat.(0) && rate_arr.(w') < (threshold *. mean_rate)
          then begin
            lat.(0) <- est_arr.(w');
            target := i
          end
      done;
      if !target >= 0 && nominal_eta w now !target < lat.(0) then
        launch_speculative w now !target
    end
  in
  let dispatch w now =
    if wstate.(w) = w_idle then begin
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
  let handle now e =
    let tag = e land 7 in
    let arg = e asr 3 in
    if tag = tag_free then begin
      let w = arg in
      if wstate.(w) = w_idle then dispatch w now
      else if wstate.(w) = w_busy && run_task.(w) < 0 then begin
        (* freed after a fetch-exhausted copy *)
        wstate.(w) <- w_idle;
        dispatch w now
      end
    end
    else if tag = tag_done then begin
      let w = arg in
      let i = run_task.(w) in
      if i >= 0 && run_finish.(w) = now then begin
        if obs_on then rec_s sh_service (now -. run_start.(w));
        run_task.(w) <- -1;
        wstate.(w) <- w_idle;
        live_copies.(i) <- live_copies.(i) - 1;
        per_worker_tasks.(w) <- per_worker_tasks.(w) + 1;
        busy_until.(w) <- Float.max busy_until.(w) now;
        (if !a_n = !a_cap then begin
           let cap' = 2 * !a_cap in
           let grow_i r = let a' = Array.make cap' 0 in Array.blit !r 0 a' 0 !a_n; r := a' in
           let grow_f r = let a' = Array.make cap' 0. in Array.blit !r 0 a' 0 !a_n; r := a' in
           grow_i a_task;
           grow_i a_worker;
           grow_f a_start;
           grow_f a_fetch_end;
           grow_f a_finish;
           grow_f a_fetched;
           a_cap := cap'
         end);
        let k = !a_n in
        !a_task.(k) <- i;
        !a_worker.(k) <- w;
        !a_start.(k) <- run_start.(w);
        !a_fetch_end.(k) <- run_fetch_end.(w);
        !a_finish.(k) <- now;
        !a_fetched.(k) <- run_volume.(w);
        a_n := k + 1;
        if completion.(i) = infinity then begin
          completion.(i) <- now;
          winner.(i) <- w
        end
        else
          (* lost the duplicate race: the whole copy was wasted *)
          wasted.(0) <- wasted.(0) +. tasks.(i).Task.cost;
        dispatch w now
      end
    end
    else if tag = tag_crash then begin
      let c = crash_arr.(arg) in
      let w = c.Fault.Plan.worker in
      if wstate.(w) <> w_down then begin
        incr crashes;
        Fault.Clock.record clock (Crash { worker = w; time = now });
        let i = run_task.(w) in
        if i >= 0 then begin
          live_copies.(i) <- live_copies.(i) - 1;
          (if run_fetch_end.(w) < now && run_compute.(w) > 0. then begin
             let done_ =
               Fault.Plan.work_between faults ~worker:w ~start:run_fetch_end.(w)
                 ~until:now
             in
             wasted.(0) <-
               wasted.(0)
               +. (Float.min 1. (done_ /. run_compute.(w)) *. tasks.(i).Task.cost)
           end);
          busy_until.(w) <- Float.max busy_until.(w) now;
          enqueue_retry i now
        end;
        run_task.(w) <- -1;
        wstate.(w) <- w_down;
        (* a crash loses the worker's block cache *)
        Intset.reset caches.(w)
      end
    end
    else if tag = tag_recover then begin
      let w = arg in
      if wstate.(w) = w_down then begin
        Fault.Clock.record clock (Recover { worker = w; time = now });
        wstate.(w) <- w_idle;
        dispatch w now
      end
    end
    else begin
      (* tag_retry *)
      let i = arg in
      retry_pending.(i) <- false;
      if completion.(i) = infinity && live_copies.(i) = 0 then begin
        if obs_on then avail.(i) <- now;
        Pending.add pending i;
        let w = ref 0 in
        while !w < p && not (Pending.is_empty pending) do
          if wstate.(!w) = w_idle then dispatch !w now;
          incr w
        done
      end
    end
  in
  Obs.Trace.begin_span "mapreduce.schedule";
  while not (Des.Event_heap.is_empty queue) do
    let now = Des.Event_heap.min_priority queue in
    let e = Des.Event_heap.pop queue in
    incr events_processed;
    if obs_on then begin
      let tag = e land 7 in
      evt_counts.(tag) <- evt_counts.(tag) + 1;
      if !events_processed land heap_sample_mask = 0 then
        Obs.Hist.record_into sh_heap (Des.Event_heap.size queue)
    end;
    handle now e
  done;
  Obs.Trace.end_span "mapreduce.schedule";
  if obs_on then begin
    Obs.Metrics.add m_ev_free evt_counts.(tag_free);
    Obs.Metrics.add m_ev_done evt_counts.(tag_done);
    Obs.Metrics.add m_ev_crash evt_counts.(tag_crash);
    Obs.Metrics.add m_ev_recover evt_counts.(tag_recover);
    Obs.Metrics.add m_ev_retry evt_counts.(tag_retry);
    Obs.Metrics.set_gauge g_heap_hwm
      (float_of_int (Des.Event_heap.high_water queue))
  end;
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
  let assignments =
    let acc = ref [] in
    for k = !a_n - 1 downto 0 do
      acc :=
        {
          task = !a_task.(k);
          worker = !a_worker.(k);
          start = !a_start.(k);
          fetch_end = !a_fetch_end.(k);
          finish = !a_finish.(k);
          fetched = !a_fetched.(k);
        }
        :: !acc
    done;
    !acc
  in
  {
    assignments;
    completion;
    winner;
    makespan;
    busy_until;
    communication = total_comm.(0);
    per_worker_comm;
    per_worker_tasks;
    duplicates = !duplicates;
    retries = !retries;
    crashes_survived = !crashes;
    attempts;
    idle_workers;
    unfinished;
    wasted_work = wasted.(0);
    events_processed = !events_processed;
    fault_log = Fault.Clock.events clock;
  }
