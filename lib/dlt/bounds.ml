module Processor = Platform.Processor
module Star = Platform.Star

let ideal_makespan star cost ~total =
  Cost_model.work cost total /. Star.total_speed star

let divisible_ideal_makespan star cost ~total =
  if total <= 0. then invalid_arg "Bounds.divisible_ideal_makespan: total must be > 0";
  (* Free communication is the equal-finish solve with c = 0: the same
     speeds behind infinite-bandwidth, latency-free links. *)
  let compute_only =
    Star.create
      (List.map
         (fun (p : Processor.t) ->
           Processor.make ~bandwidth:infinity ~id:p.Processor.id ~speed:p.Processor.speed ())
         (Array.to_list (Star.workers star)))
  in
  snd (Nonlinear.equal_finish_allocation Schedule.Parallel compute_only cost ~total)
