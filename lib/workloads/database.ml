module Star = Platform.Star
module Processor = Platform.Processor

type record = { key : int; group : int; value : float }

let generate rng ~rows ~groups =
  if rows < 0 || groups <= 0 then invalid_arg "Database.generate: bad dimensions";
  Array.init rows (fun _ ->
      {
        key = Numerics.Rng.int rng 1_000_000_000;
        group = Numerics.Rng.int rng groups;
        value = Numerics.Rng.float rng;
      })

type query = {
  name : string;
  predicate : record -> bool;
  weight : record -> float;
}

let sum_where ~name predicate weight = { name; predicate; weight }

type execution = {
  shares : int array;
  answer : float;
  makespan : float;
  speedup : float;
}

let scan query records =
  let acc = Numerics.Kahan.create () in
  Array.iter (fun r -> if query.predicate r then Numerics.Kahan.add acc (query.weight r)) records;
  Numerics.Kahan.total acc

let distributed_scan star query records =
  let total = Array.length records in
  let shares =
    Numerics.Apportion.largest_remainder
      ~weights:(Dlt.Linear.one_port_allocation star ~total:(float_of_int total))
      ~total
  in
  let workers = Star.workers star in
  let order = Dlt.Linear.one_port_order star in
  let acc = Numerics.Kahan.create () in
  let offsets = Array.make (Star.size star) 0 in
  let start = ref 0 in
  Array.iteri
    (fun i n ->
      offsets.(i) <- !start;
      start := !start + n;
      ignore i)
    shares;
  let port = ref 0. in
  let makespan = ref 0. in
  Array.iter
    (fun i ->
      let n = shares.(i) in
      if n > 0 then begin
        let proc = workers.(i) in
        let arrival = !port +. Processor.transfer_time proc ~data:(float_of_int n) in
        port := arrival;
        let finish = arrival +. Processor.compute_time proc ~work:(float_of_int n) in
        if finish > !makespan then makespan := finish;
        for r = offsets.(i) to offsets.(i) + n - 1 do
          if query.predicate records.(r) then Numerics.Kahan.add acc (query.weight records.(r))
        done
      end)
    order;
  let slowest = Star.slowest star in
  let solo =
    Processor.transfer_time slowest ~data:(float_of_int total)
    +. Processor.compute_time slowest ~work:(float_of_int total)
  in
  {
    shares;
    answer = Numerics.Kahan.total acc;
    makespan = !makespan;
    speedup = (if !makespan > 0. then solo /. !makespan else 1.);
  }
