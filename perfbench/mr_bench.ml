(* mrsim_faults: the fault-injected MapReduce simulation at 10^5
   workers x 10^6 tasks, on one domain. *)

module Rng = Numerics.Rng
module Scheduler = Mapreduce.Scheduler

let workers = 100_000
let n_tasks = 1_000_000

type t = {
  star : Platform.Star.t;
  tasks : Mapreduce.Task.t array;
  faults : Fault.Plan.t;
  events : int;  (** events_processed fixed for this seed by the warm-up pass *)
}

(* ~0.1% of workers crash (and recover), 1% are slowed, every link
   drops 1% of fetches: regular dispatch dominates. *)
let plan ~seed =
  Fault.Plan.generate ~rng:(Rng.create ~seed ()) ~p:workers ~horizon:20. ~crash_rate:0.001
    ~slowdown_rate:0.01 ~fetch_failure:0.01 ()

let simulate ~star ~tasks ~faults = Scheduler.run ~faults star ~tasks ~block_size:(fun _ -> 1.)
let run t = simulate ~star:t.star ~tasks:t.tasks ~faults:t.faults

let correct ?(corrupt = false) t (o : Scheduler.outcome) =
  o.unfinished = [] && o.events_processed = t.events + Bool.to_int corrupt

(* Inputs, the fault plan, and one warm-up simulation that fixes the
   event count every later run must reproduce. *)
let setup ~seed =
  let star = Platform.Star.of_speeds (List.init workers (fun _ -> 1.)) in
  let tasks = Array.init n_tasks (fun i -> Mapreduce.Task.make ~id:i ~data_ids:[| i |] ~cost:1.) in
  let faults = plan ~seed in
  let o = simulate ~star ~tasks ~faults in
  if o.unfinished <> [] then failwith "mrsim_faults: warm-up left tasks unfinished";
  { star; tasks; faults; events = o.events_processed }
