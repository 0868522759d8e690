type ('k, 'v) job = {
  tasks : Task.t array;
  execute : int -> ('k * 'v) list;
  block_size : int -> float;
}

type ('k, 'v) result = {
  output : ('k * 'v) list;
  map : Scheduler.outcome;
  shuffle : Shuffle.stats;
  makespan : float;
}

let run ?config star job ~reduce =
  Array.iteri
    (fun i task ->
      if task.Task.id <> i then invalid_arg "Engine.run: task ids must be 0..n-1 in order")
    job.tasks;
  let map = Scheduler.run ?config star ~tasks:job.tasks ~block_size:job.block_size in
  let pairs =
    Array.to_list job.tasks
    |> List.concat_map (fun task ->
           let i = task.Task.id in
           let producer = if map.Scheduler.winner.(i) >= 0 then map.Scheduler.winner.(i) else 0 in
           List.map (fun (k, v) -> (k, v, producer)) (job.execute i))
  in
  let output, shuffle = Shuffle.run star ~pairs ~reduce in
  { output; map; shuffle; makespan = map.Scheduler.makespan +. shuffle.Shuffle.reduce_time }
