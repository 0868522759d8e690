(* Frozen copy of the Brent-over-Brent body of [Dlt.Nonlinear]
   ([worker_share], [capacity], [shares], [equal_finish_allocation]) as
   it stood before the safeguarded-Newton solver replaced it.  Only the
   module paths differ from the original; do not "improve" this file. *)

module Processor = Platform.Processor
module Cost_model = Dlt.Cost_model
module Schedule = Dlt.Schedule
module Linear = Dlt.Linear
module Star = Platform.Star
module Kahan = Numerics.Kahan

let worker_share _comm_model proc cost ~offset ~deadline =
  let c = Processor.c proc and w = Processor.w proc in
  let lat = proc.Processor.latency in
  let budget = deadline -. offset -. lat in
  if budget <= 0. then 0.
  else begin
    (* finish(n) = c·n + w·work(n) is strictly increasing in n. *)
    let finish n = (c *. n) +. (w *. Cost_model.work cost n) in
    let f n = finish n -. budget in
    if f 0. >= 0. then 0.
    else
      let hi0 = Float.max (budget /. c) 1. in
      match Roots.expand_bracket ~f ~lo:0. ~hi:hi0 () with
      | None -> 0.
      | Some (lo, hi) -> Roots.brent ~f ~lo ~hi ()
  end

(* Total load the platform can absorb by deadline [t] under the model. *)
let capacity comm_model star cost t =
  let workers = Star.workers star in
  match comm_model with
  | Schedule.Parallel ->
      Kahan.sum_by
        (fun proc -> worker_share comm_model proc cost ~offset:0. ~deadline:t)
        workers
  | Schedule.One_port ->
      let order = Linear.one_port_order star in
      let offset = ref 0. in
      let acc = Kahan.create () in
      Array.iter
        (fun i ->
          let proc = workers.(i) in
          let n = worker_share comm_model proc cost ~offset:!offset ~deadline:t in
          if n > 0. then
            offset := !offset +. Processor.transfer_time proc ~data:n;
          Kahan.add acc n)
        order;
      Kahan.total acc

let shares comm_model star cost t =
  let workers = Star.workers star in
  match comm_model with
  | Schedule.Parallel ->
      Array.map (fun proc -> worker_share comm_model proc cost ~offset:0. ~deadline:t) workers
  | Schedule.One_port ->
      let order = Linear.one_port_order star in
      let offset = ref 0. in
      let allocation = Array.make (Array.length workers) 0. in
      Array.iter
        (fun i ->
          let proc = workers.(i) in
          let n = worker_share comm_model proc cost ~offset:!offset ~deadline:t in
          if n > 0. then offset := !offset +. Processor.transfer_time proc ~data:n;
          allocation.(i) <- n)
        order;
      allocation

let equal_finish_allocation comm_model star cost ~total =
  if total <= 0. then invalid_arg "Nonlinear.equal_finish_allocation: total must be > 0";
  let f t = capacity comm_model star cost t -. total in
  (* Any deadline large enough for the slowest worker alone brackets the
     optimum from above. *)
  let slowest = Star.slowest star in
  let hi0 =
    slowest.Processor.latency
    +. Processor.transfer_time slowest ~data:total
    +. Processor.compute_time slowest ~work:(Cost_model.work cost total)
  in
  match Roots.expand_bracket ~f ~lo:0. ~hi:(Float.max hi0 1e-9) () with
  | None -> invalid_arg "Nonlinear.equal_finish_allocation: cannot bracket makespan"
  | Some (lo, hi) ->
      let t = Roots.brent ~tol:1e-13 ~f ~lo ~hi () in
      let allocation = shares comm_model star cost t in
      (* Remove the residual of the outer root find by rescaling; the
         perturbation is O(tol) and keeps Σ n_i = total exactly. *)
      let sum = Kahan.sum allocation in
      let allocation =
        if sum > 0. then Array.map (fun n -> n *. total /. sum) allocation else allocation
      in
      (allocation, t)
