module Star = Platform.Star
module Processor = Platform.Processor
module Kahan = Numerics.Kahan

let src = Logs.Src.create "nldl.partition" ~doc:"Data-distribution strategies"

module Log = (val Logs.src_log src : Logs.LOG)

type result = {
  k : int;
  blocks : int;
  block_side : float;
  owners : int array;
  per_worker : int array;
  finish_times : float array;
  communication : float;
  imbalance : float;
  makespan : float;
}

let block_count star ~k =
  let x = Star.relative_speeds star in
  let kf = float_of_int k in
  max 1 (int_of_float (Float.round (kf *. kf /. x.(0))))

let hand_out ~p ~blocks ~finish =
  let owners = Array.make blocks 0 in
  let finish_times = Array.make p 0. in
  (* Demand-driven = each worker requests a block the instant it becomes
     idle; ties at t = 0 resolved by worker index (FIFO). *)
  let queue = Des.Event_heap.create ~initial_capacity:p () in
  for i = 0 to p - 1 do
    Des.Event_heap.push queue ~priority:0. i
  done;
  for b = 0 to blocks - 1 do
    let now = Des.Event_heap.min_priority queue in
    let i = Des.Event_heap.pop queue in
    let t = finish i now in
    owners.(b) <- i;
    finish_times.(i) <- t;
    Des.Event_heap.push queue ~priority:t i
  done;
  (owners, finish_times)

let demand_driven star ~n ~k =
  if n <= 0. then invalid_arg "Block_hom.demand_driven: n must be > 0";
  if k <= 0 then invalid_arg "Block_hom.demand_driven: k must be > 0";
  let p = Star.size star in
  let workers = Star.workers star in
  let x = Star.relative_speeds star in
  let blocks = block_count star ~k in
  let block_side = sqrt x.(0) *. n /. float_of_int k in
  let block_work = block_side *. block_side in
  let owners, finish_times =
    hand_out ~p ~blocks ~finish:(fun i now ->
        now +. Processor.compute_time workers.(i) ~work:block_work)
  in
  let per_worker = Array.make p 0 in
  Array.iter (fun i -> per_worker.(i) <- per_worker.(i) + 1) owners;
  let tmax = Array.fold_left Float.max 0. finish_times in
  let tmin = Array.fold_left Float.min infinity finish_times in
  let imbalance = if tmin > 0. then (tmax -. tmin) /. tmin else infinity in
  {
    k;
    blocks;
    block_side;
    owners;
    per_worker;
    finish_times;
    communication = float_of_int blocks *. 2. *. block_side;
    imbalance;
    makespan = tmax;
  }

let commhom star ~n = demand_driven star ~n ~k:1

let commhom_over_k ?(target_imbalance = 0.01) ?(max_k = 128) star ~n =
  let rec search k =
    let result = demand_driven star ~n ~k in
    Log.debug (fun m ->
        m "Commhom/k search: k=%d blocks=%d imbalance=%.4g" k result.blocks
          result.imbalance);
    if result.imbalance <= target_imbalance || k >= max_k then result else search (k + 1)
  in
  search 1
