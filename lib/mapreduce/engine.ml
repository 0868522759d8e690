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

let run ?config ?combine star job ~reduce =
  Array.iteri
    (fun i task ->
      if task.Task.id <> i then invalid_arg "Engine.run: task ids must be 0..n-1 in order")
    job.tasks;
  let map = Scheduler.run ?config star ~tasks:job.tasks ~block_size:job.block_size in
  (* Optional map-side combiner: fold same-key pairs of one task before
     they enter the shuffle. *)
  let task_pairs i =
    let raw = job.execute i in
    match combine with
    | None -> raw
    | Some combine ->
        let groups = Hashtbl.create 16 in
        let order = ref [] in
        List.iter
          (fun (k, v) ->
            match Hashtbl.find_opt groups k with
            | Some cell -> cell := v :: !cell
            | None ->
                Hashtbl.add groups k (ref [ v ]);
                order := k :: !order)
          raw;
        List.rev_map (fun k -> (k, combine k (List.rev !(Hashtbl.find groups k)))) !order
  in
  let pairs =
    Array.to_list job.tasks
    |> List.concat_map (fun task ->
           let i = task.Task.id in
           let producer = if map.Scheduler.winner.(i) >= 0 then map.Scheduler.winner.(i) else 0 in
           List.map (fun (k, v) -> (k, v, producer)) (task_pairs i))
  in
  let output, shuffle = Shuffle.run star ~pairs ~reduce in
  { output; map; shuffle; makespan = map.Scheduler.makespan +. shuffle.Shuffle.reduce_time }
