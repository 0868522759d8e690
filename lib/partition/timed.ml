module Star = Platform.Star
module Processor = Platform.Processor

type timing = { makespan : float; comm_makespan : float; per_worker : float array }

let of_finish_times ~comm per_worker =
  {
    makespan = Array.fold_left Float.max 0. per_worker;
    comm_makespan = Array.fold_left Float.max 0. comm;
    per_worker;
  }

let het star ~n =
  if n <= 0. then invalid_arg "Timed.het: n must be > 0";
  let layout = Column_partition.peri_sum_layout ~areas:(Star.relative_speeds star) in
  let workers = Star.workers star in
  let comm = Array.make (Star.size star) 0. in
  let per_worker =
    Array.mapi
      (fun i rect ->
        let proc = workers.(i) in
        let data = n *. Rect.half_perimeter rect in
        let cells = n *. n *. Rect.area rect in
        let fetch = Processor.transfer_time proc ~data in
        comm.(i) <- fetch;
        fetch +. Processor.compute_time proc ~work:cells)
      layout.Layout.rects
  in
  of_finish_times ~comm per_worker

let hom ?(k = 1) star ~n =
  if n <= 0. then invalid_arg "Timed.hom: n must be > 0";
  let p = Star.size star in
  let workers = Star.workers star in
  let blocks = Block_hom.block_count star ~k in
  let x = Star.relative_speeds star in
  let side = sqrt x.(0) *. n /. float_of_int k in
  let block_data = 2. *. side in
  let block_work = side *. side in
  let fetch = Array.map (fun proc -> Processor.transfer_time proc ~data:block_data) workers in
  (* The fetch is folded into each block's service time: the worker
     requests, receives, computes, requests again. *)
  let owners, per_worker =
    Block_hom.hand_out ~p ~blocks ~finish:(fun i now ->
        now +. fetch.(i) +. Processor.compute_time workers.(i) ~work:block_work)
  in
  let comm = Array.make p 0. in
  Array.iter (fun i -> comm.(i) <- comm.(i) +. fetch.(i)) owners;
  of_finish_times ~comm per_worker

let hom_balanced ?target_imbalance star ~n =
  let result = Block_hom.commhom_over_k ?target_imbalance star ~n in
  hom ~k:result.Block_hom.k star ~n

let compute_bound star ~n = n *. n /. Star.total_speed star
