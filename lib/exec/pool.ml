(* Persistent domain pool with a chunked dynamic scheduler.

   Workers are spawned on first use and parked on a condition variable
   between submissions; each submission publishes a task whose chunk
   indices are claimed through a shared atomic counter, so uneven
   per-index costs load-balance instead of following a fixed contiguous
   split.  A pool that is sized but only ever runs sequentially stays a
   single domain, so its minor collections need no stop-the-world
   rendezvous with parked workers.

   The pool is instrumented: per-participant counters (tasks run,
   chunks claimed, busy/parked nanoseconds on the shared monotonic
   clock) accumulate into cache-line-sized records each written by
   exactly one domain, and submissions emit [Obs] spans / latency
   histogram samples when tracing/histograms are enabled.  With both
   disabled the per-submission overhead is two clock reads and a few
   plain stores — no allocation. *)

(* R403 flags blocking waits in pool-escaping code, but this file IS the
   pool runtime: worker parking (Mutex.lock + Condition.wait) and the
   completion rendezvous in [parallel_for] are the scheduler itself, not
   work that stalls it. *)
[@@@nldl.allow "R403"]

(* Per-participant counters.  One record per domain slot (slot 0 is the
   submitting domain, then one per worker); the seven mutable fields
   plus the header fill a 64-byte cache line, so two slots never share
   one. *)
type wstats = {
  mutable ws_tasks : int; (* submissions this slot ran chunks for *)
  mutable ws_chunks : int;
  mutable ws_busy_ns : int;
  mutable ws_parked_ns : int;
  mutable pad1 : int;
  mutable pad2 : int;
  mutable pad3 : int;
}

let fresh_wstats () =
  { ws_tasks = 0; ws_chunks = 0; ws_busy_ns = 0; ws_parked_ns = 0; pad1 = 0; pad2 = 0; pad3 = 0 }

(* Keep the padding fields alive against unused-field warnings. *)
let _touch_pads st = st.pad1 + st.pad2 + st.pad3

(* One reusable task slot per pool, mutated between generations instead
   of allocated per submission: the record, its three atomics and the
   [Some] wrapper used to cost ~30 minor words on every [parallel_for],
   which doubled the allocation profile of otherwise zero-alloc kernels
   (the pool scatter measured 2x its sequential twin).  The submitting
   domain only writes these fields while no generation is in flight
   (before the broadcast, or after every worker has retired), and
   workers acquire the pool mutex before reading, so the fields are
   race-free without per-field atomicity. *)
type task = {
  mutable n : int;
  mutable chunk_size : int;
  mutable chunk_count : int;
  mutable body : int -> unit;
  next_chunk : int Atomic.t;
  (* Participation slots for workers (the caller always participates);
     workers beyond [max_extra] report done without pulling chunks, which
     is how [~workers] caps effective parallelism on a larger pool. *)
  mutable max_extra : int;
  claimed : int Atomic.t;
  failure : (exn * Printexc.raw_backtrace) option Atomic.t;
}

let idle_body (_ : int) = ()

let fresh_task () =
  {
    n = 0;
    chunk_size = 1;
    chunk_count = 0;
    body = idle_body;
    next_chunk = Atomic.make 0;
    max_extra = 0;
    claimed = Atomic.make 0;
    failure = Atomic.make None;
  }

type t = {
  mutex : Mutex.t;
  work : Condition.t;
  retired : Condition.t;
  mutable workers : unit Domain.t array;  (* spawned so far, in spawn order *)
  task : task;
  mutable generation : int;
  mutable finished : int;  (* workers done with the current generation *)
  mutable torn_down : bool;
  mutable wstats : wstats array;
      (* one slot per domain of the capacity, spawned or not: slot 0 =
         submitting domain, 1.. = workers *)
  mutable submissions : int; (* parallel submissions; submitting domain only *)
  seq_runs : int Atomic.t; (* sequential-fallback runs, any domain *)
  nested_runs : int Atomic.t; (* subset of seq_runs from nested calls *)
}

let m_submissions = Obs.Metrics.counter "pool.submissions"
let m_sequential = Obs.Metrics.counter "pool.sequential_runs"

let h_submit_ns = Obs.Hist.create "pool.submit_latency_ns"

let default_domains () = max 1 (Domain.recommended_domain_count ())
let size pool = Array.length pool.wstats

(* True while this domain is executing pool work (worker loop, or a
   caller inside a submission).  Nested submissions from such a domain
   run sequentially instead of deadlocking on the single task slot. *)
let busy_key = Domain.DLS.new_key (fun () -> false)

let run_chunks task st =
  let rec loop () =
    let c = Atomic.fetch_and_add task.next_chunk 1 in
    if c < task.chunk_count then begin
      st.ws_chunks <- st.ws_chunks + 1;
      (* After a failure the remaining chunks are drained without
         running the body, so the submission finishes promptly. *)
      (match Atomic.get task.failure with
      | Some _ -> ()
      | None -> (
          try
            let start = c * task.chunk_size in
            let stop = min task.n (start + task.chunk_size) in
            for i = start to stop - 1 do
              task.body i
            done
          with e ->
            let bt = Printexc.get_raw_backtrace () in
            ignore (Atomic.compare_and_set task.failure None (Some (e, bt)))));
      loop ()
    end
  in
  loop ()

let rec worker_loop pool st seen =
  let t0 = Obs.Clock.now_ns () in
  Mutex.lock pool.mutex;
  while pool.generation = seen && not pool.torn_down do
    Condition.wait pool.work pool.mutex
  done;
  if pool.generation = seen then begin
    (* torn down, no pending task *)
    st.ws_parked_ns <- st.ws_parked_ns + (Obs.Clock.now_ns () - t0);
    Mutex.unlock pool.mutex
  end
  else begin
    let gen = pool.generation in
    let task = pool.task in
    Mutex.unlock pool.mutex;
    let t1 = Obs.Clock.now_ns () in
    st.ws_parked_ns <- st.ws_parked_ns + (t1 - t0);
    if Atomic.fetch_and_add task.claimed 1 < task.max_extra then begin
      Obs.Trace.begin_span "pool.worker.run";
      run_chunks task st;
      Obs.Trace.end_span "pool.worker.run";
      st.ws_tasks <- st.ws_tasks + 1;
      st.ws_busy_ns <- st.ws_busy_ns + (Obs.Clock.now_ns () - t1)
    end;
    Mutex.lock pool.mutex;
    pool.finished <- pool.finished + 1;
    Condition.broadcast pool.retired;
    Mutex.unlock pool.mutex;
    worker_loop pool st gen
  end

let spawn_worker pool st seen =
  Domain.spawn (fun () ->
      Domain.DLS.set busy_key true;
      worker_loop pool st seen)

let create ?domains () =
  let domains =
    match domains with Some d -> max 1 d | None -> default_domains ()
  in
  {
    mutex = Mutex.create ();
    work = Condition.create ();
    retired = Condition.create ();
    workers = [||];
    task = fresh_task ();
    generation = 0;
    finished = 0;
    torn_down = false;
    wstats = Array.init domains (fun _ -> fresh_wstats ());
    submissions = 0;
    seq_runs = Atomic.make 0;
    nested_runs = Atomic.make 0;
  }

let ensure pool ~domains =
  (* Only ever called between submissions, so no task is in flight.
     Existing slots keep their counters; the new ones start from zero. *)
  if (not pool.torn_down) && domains > size pool then
    pool.wstats <-
      Array.append pool.wstats (Array.init (domains - size pool) (fun _ -> fresh_wstats ()))

(* Bring the spawned workers up to [extra].  Called by the submitter
   between generations, so the new workers wait for the next one.  One
   spawn at a time keeps [workers] exact if [Domain.spawn] raises. *)
let spawn_up_to pool extra =
  let seen = pool.generation in
  for slot = Array.length pool.workers + 1 to extra do
    pool.workers <- Array.append pool.workers [| spawn_worker pool pool.wstats.(slot) seen |]
  done

let teardown pool =
  Mutex.lock pool.mutex;
  if pool.torn_down then Mutex.unlock pool.mutex
  else begin
    pool.torn_down <- true;
    Condition.broadcast pool.work;
    Mutex.unlock pool.mutex;
    Array.iter Domain.join pool.workers
    (* [workers] and [wstats] are kept: stats survive teardown (the
       sequential fallback of a torn-down pool still counts into
       [seq_runs]). *)
  end

let default_chunks_per_worker = 8

let parallel_for ?workers ?chunk pool n body =
  let workers =
    match workers with Some w -> max 1 w | None -> size pool
  in
  let workers = min workers (size pool) in
  if n <= 0 then ()
  else if n = 1 || workers = 1 || pool.torn_down || Domain.DLS.get busy_key
  then begin
    if Domain.DLS.get busy_key then Atomic.incr pool.nested_runs;
    Atomic.incr pool.seq_runs;
    Obs.Metrics.incr_counter m_sequential;
    for i = 0 to n - 1 do
      body i
    done
  end
  else begin
    let parts = min workers n in
    let chunk_size =
      match chunk with
      | Some c -> max 1 c
      | None ->
          let target = parts * default_chunks_per_worker in
          max 1 ((n + target - 1) / target)
    in
    let chunk_count = (n + chunk_size - 1) / chunk_size in
    let task = pool.task in
    Obs.Trace.begin_span "pool.parallel_for";
    let t0 = Obs.Clock.now_ns () in
    spawn_up_to pool (parts - 1);
    Mutex.lock pool.mutex;
    (* Refill the reusable slot under the mutex: the broadcast below is
       what publishes it, and no worker touches the slot between
       generations. *)
    task.n <- n;
    task.chunk_size <- chunk_size;
    task.chunk_count <- chunk_count;
    task.body <- body;
    task.max_extra <- parts - 1;
    Atomic.set task.next_chunk 0;
    Atomic.set task.claimed 0;
    Atomic.set task.failure None;
    pool.generation <- pool.generation + 1;
    pool.finished <- 0;
    Condition.broadcast pool.work;
    Mutex.unlock pool.mutex;
    (* Manual cleanup instead of [Fun.protect]: no closure pair per
       submission, and [run_chunks] already funnels body exceptions into
       [task.failure], so the handler is for belt and braces only. *)
    Domain.DLS.set busy_key true;
    (try run_chunks task pool.wstats.(0)
     with e ->
       Domain.DLS.set busy_key false;
       raise e);
    Domain.DLS.set busy_key false;
    Mutex.lock pool.mutex;
    (* Every worker responds to every generation (participant or not), so
       completion is simply all workers having reported in. *)
    while pool.finished < Array.length pool.workers do
      Condition.wait pool.retired pool.mutex
    done;
    (* Drop the caller's closure so the slot does not retain it until the
       next submission. *)
    task.body <- idle_body;
    Mutex.unlock pool.mutex;
    let st = pool.wstats.(0) in
    let elapsed = Obs.Clock.now_ns () - t0 in
    st.ws_tasks <- st.ws_tasks + 1;
    st.ws_busy_ns <- st.ws_busy_ns + elapsed;
    pool.submissions <- pool.submissions + 1;
    Obs.Metrics.incr_counter m_submissions;
    Obs.Hist.record h_submit_ns elapsed;
    Obs.Trace.end_span "pool.parallel_for";
    match Atomic.get task.failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

(* Workers spawn on first use, so an empty submission as wide as
   [workers] is what spawns them. *)
let warm_up ~workers pool = if workers > 1 then parallel_for ~workers pool workers ignore

let parallel_map_array ?workers ?chunk pool f a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let first = f a.(0) in
    let out = Array.make n first in
    parallel_for ?workers ?chunk pool (n - 1) (fun i -> out.(i + 1) <- f a.(i + 1));
    out
  end

(* --- stats ------------------------------------------------------------- *)

type worker_stats = { tasks : int; chunks : int; busy_ns : int; parked_ns : int }

type stats = {
  domains : int;
  spawned : int;
  submissions : int;
  sequential_runs : int;
  nested_runs : int;
  per_domain : worker_stats array;
}

let stats pool =
  {
    domains = size pool;
    spawned = Array.length pool.workers;
    submissions = pool.submissions;
    sequential_runs = Atomic.get pool.seq_runs;
    nested_runs = Atomic.get pool.nested_runs;
    per_domain =
      Array.map
        (fun ws ->
          {
            tasks = ws.ws_tasks;
            chunks = ws.ws_chunks;
            busy_ns = ws.ws_busy_ns;
            parked_ns = ws.ws_parked_ns;
          })
        pool.wstats;
  }

(* Global pool, shared by Numerics.Parallel and anything else that does
   not want to manage a pool of its own.  Grown on demand when a caller
   asks for more domains than it currently has; torn down at exit. *)
let global : t option ref = ref None
[@@nldl.allow "S201"] (* only touched from the orchestrating domain: workers
                         never call get_global, and pool creation/growth happens
                         before any parallel section runs *)

(* R401: [global :=] below shares the [global] binding's audit — pool
   creation/growth happens on the orchestrating domain before any
   parallel section runs, never from a worker. *)
let[@nldl.allow "R401"] get_global ?(at_least = 1) () =
  match !global with
  | Some pool ->
      if at_least > size pool then ensure pool ~domains:at_least;
      pool
  | None ->
      let pool = create ~domains:(max at_least (default_domains ())) () in
      global := Some pool;
      at_exit (fun () -> teardown pool);
      pool
