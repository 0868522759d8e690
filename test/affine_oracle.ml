(* Frozen copy of the solver body of [Dlt.Affine] ([check_order],
   [solve_subset], [makespan_of_shares], [solve]) as it stood before
   participant selection moved into [Dlt.Nonlinear] and the module was
   deleted.  Only the module paths differ from the original; do not
   "improve" this file. *)

module Star = Platform.Star
module Processor = Platform.Processor
module Kahan = Numerics.Kahan
module Linear = Dlt.Linear

let src = Logs.Src.create "nldl.dlt" ~doc:"Divisible-load solvers"

module Log = (val Logs.src_log src : Logs.LOG)

type solution = { allocation : float array; makespan : float; participants : int list }

let check_order p order =
  if Array.length order <> p then invalid_arg "Affine: order must cover the platform";
  let seen = Array.make p false in
  Array.iter
    (fun i ->
      if i < 0 || i >= p || seen.(i) then invalid_arg "Affine: order is not a permutation";
      seen.(i) <- true)
    order

(* Solve the equal-finish system for the workers listed in [chosen]
   (served in that order).  With n_i = a_i + b_i·n_first:
     a_first = 0, b_first = 1
     n_{i+1} = (w_i·n_i - L_{i+1}) / (c_{i+1} + w_{i+1}).
   Returns the shares, in the order of [chosen]. *)
let solve_subset workers chosen ~total =
  let k = Array.length chosen in
  let a = Array.make k 0. and b = Array.make k 1. in
  for r = 1 to k - 1 do
    let prev : Processor.t = workers.(chosen.(r - 1)) in
    let cur : Processor.t = workers.(chosen.(r)) in
    let denominator = Processor.c cur +. Processor.w cur in
    a.(r) <- ((Processor.w prev *. a.(r - 1)) -. cur.Processor.latency) /. denominator;
    b.(r) <- Processor.w prev *. b.(r - 1) /. denominator
  done;
  let sum_a = Kahan.sum a and sum_b = Kahan.sum b in
  let n_first = (total -. sum_a) /. sum_b in
  Array.init k (fun r -> a.(r) +. (b.(r) *. n_first))

let makespan_of_shares workers chosen shares =
  let port = ref 0. in
  let worst = ref 0. in
  Array.iteri
    (fun r i ->
      let proc : Processor.t = workers.(i) in
      let n = shares.(r) in
      if n > 0. then begin
        let arrival = !port +. Processor.transfer_time proc ~data:n in
        port := arrival;
        let finish = arrival +. (Processor.w proc *. n) in
        if finish > !worst then worst := finish
      end)
    chosen;
  !worst

let solve ?order star ~total =
  if total <= 0. then invalid_arg "Affine.solve: total must be > 0";
  let p = Star.size star in
  let workers = Star.workers star in
  let order = match order with Some o -> o | None -> Linear.one_port_order star in
  check_order p order;
  (* Greedily drop the most negative share until all are positive. *)
  let rec fit chosen =
    let shares = solve_subset workers chosen ~total in
    let worst_rank = ref (-1) and worst_value = ref 0. in
    Array.iteri
      (fun r n ->
        if n < !worst_value then begin
          worst_value := n;
          worst_rank := r
        end)
      shares;
    if !worst_rank < 0 then (chosen, shares)
    else begin
      if Array.length chosen = 1 then
        invalid_arg "Affine.solve: no feasible participant";
      let kept =
        Array.of_list
          (List.filteri (fun r _ -> r <> !worst_rank) (Array.to_list chosen))
      in
      fit kept
    end
  in
  (* A feasible (all-positive) solution can still be improved by
     dropping a worker whose latency dominates its contribution, so
     descend greedily on the makespan. *)
  let without chosen r =
    Array.of_list (List.filteri (fun r' _ -> r' <> r) (Array.to_list chosen))
  in
  let rec improve (chosen, shares) =
    let span = makespan_of_shares workers chosen shares in
    if Array.length chosen <= 1 then (chosen, shares)
    else begin
      let best = ref None in
      for r = 0 to Array.length chosen - 1 do
        let candidate = fit (without chosen r) in
        let candidate_span =
          let c, s = candidate in
          makespan_of_shares workers c s
        in
        match !best with
        | Some (_, best_span) when candidate_span >= best_span -> ()
        | Some _ | None -> best := Some (candidate, candidate_span)
      done;
      match !best with
      | Some (candidate, candidate_span) when candidate_span < span -. (1e-12 *. span) ->
          Log.debug (fun m ->
              m "affine solve: dropping to %d participants improves %.6g -> %.6g"
                (Array.length (fst candidate)) span candidate_span);
          improve candidate
      | Some _ | None -> (chosen, shares)
    end
  in
  let chosen, shares = improve (fit order) in
  let allocation = Array.make p 0. in
  Array.iteri (fun r i -> allocation.(i) <- shares.(r)) chosen;
  {
    allocation;
    makespan = makespan_of_shares workers chosen shares;
    participants = Array.to_list chosen;
  }
