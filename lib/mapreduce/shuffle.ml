module Star = Platform.Star
module Processor = Platform.Processor

type stats = {
  pairs : int;
  volume : float;
  per_reducer_volume : float array;
  per_reducer_work : float array;
  reduce_time : float;
}

let placement ~p key = Hashtbl.hash key mod p

let run star ~pairs ~reduce =
  let p = Star.size star in
  let workers = Star.workers star in
  let groups : ('k, 'v list ref) Hashtbl.t = Hashtbl.create 256 in
  let per_reducer_volume = Array.make p 0. in
  let per_reducer_work = Array.make p 0. in
  let count = ref 0 in
  List.iter
    (fun (key, value, producer) ->
      incr count;
      let reducer = placement ~p key in
      if reducer <> producer then
        per_reducer_volume.(reducer) <- per_reducer_volume.(reducer) +. 1.;
      per_reducer_work.(reducer) <- per_reducer_work.(reducer) +. 1.;
      (match Hashtbl.find_opt groups key with
      | Some cell -> cell := value :: !cell
      | None -> Hashtbl.add groups key (ref [ value ])))
    pairs;
  let output =
    Hashtbl.fold (fun key cell acc -> (key, reduce key (List.rev !cell)) :: acc) groups []
  in
  let reduce_time =
    let worst = ref 0. in
    for r = 0 to p - 1 do
      let time =
        Processor.transfer_time workers.(r) ~data:per_reducer_volume.(r)
        +. Processor.compute_time workers.(r) ~work:per_reducer_work.(r)
      in
      if time > !worst then worst := time
    done;
    !worst
  in
  ( output,
    {
      pairs = !count;
      volume = Numerics.Kahan.sum per_reducer_volume;
      per_reducer_volume;
      per_reducer_work;
      reduce_time;
    } )
