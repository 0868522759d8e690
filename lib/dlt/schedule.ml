module Processor = Platform.Processor
module Star = Platform.Star

type entry = {
  proc : Processor.t;
  data : float;
  comm_start : float;
  comm_end : float;
  compute_start : float;
  compute_end : float;
}

type t = { entries : entry array; makespan : float }
type comm_model = Parallel | One_port

let check_permutation p order =
  if Array.length order <> p then invalid_arg "Schedule.check_permutation: bad order length";
  let seen = Array.make p false in
  Array.iter
    (fun i ->
      if i < 0 || i >= p || seen.(i) then
        invalid_arg "Schedule.check_permutation: order is not a permutation";
      seen.(i) <- true)
    order

let of_allocation ?order comm_model star cost ~allocation =
  let p = Star.size star in
  if Array.length allocation <> p then
    invalid_arg "Schedule.of_allocation: allocation size mismatch";
  Array.iter
    (fun n -> if n < 0. || Float.is_nan n then invalid_arg "Schedule.of_allocation: bad amount")
    allocation;
  let order = match order with Some o -> o | None -> Array.init p (fun i -> i) in
  check_permutation p order;
  let port_free = ref 0. in
  let entries = Array.make p None in
  Array.iter
    (fun i ->
      let proc = Star.worker star i in
      let data = allocation.(i) in
      let comm_start = match comm_model with Parallel -> 0. | One_port -> !port_free in
      let comm_end = comm_start +. Processor.transfer_time proc ~data in
      (match comm_model with
      | One_port -> if data > 0. then port_free := comm_end
      | Parallel -> ());
      let compute_start = comm_end in
      let compute_end =
        compute_start +. Processor.compute_time proc ~work:(Cost_model.work cost data)
      in
      entries.(i) <- Some { proc; data; comm_start; comm_end; compute_start; compute_end })
    order;
  let entries =
    Array.map (function Some e -> e | None -> assert false) entries
  in
  let makespan = Array.fold_left (fun acc e -> Float.max acc e.compute_end) 0. entries in
  { entries; makespan }

let float_close ?(tol = 1e-9) a b = Float.abs (a -. b) <= tol *. (1. +. Float.max (Float.abs a) (Float.abs b))

let validate comm_model cost t =
  let problems = ref [] in
  let fail fmt = Format.kasprintf (fun msg -> problems := msg :: !problems) fmt in
  Array.iter
    (fun e ->
      let expected_comm = Processor.transfer_time e.proc ~data:e.data in
      if not (float_close (e.comm_end -. e.comm_start) expected_comm) then
        fail "P%d: transfer duration %.6g, expected %.6g" e.proc.Processor.id
          (e.comm_end -. e.comm_start) expected_comm;
      let expected_compute =
        Processor.compute_time e.proc ~work:(Cost_model.work cost e.data)
      in
      if not (float_close (e.compute_end -. e.compute_start) expected_compute) then
        fail "P%d: compute duration %.6g, expected %.6g" e.proc.Processor.id
          (e.compute_end -. e.compute_start) expected_compute;
      if e.compute_start +. 1e-9 < e.comm_end then
        fail "P%d: computation starts before reception completes" e.proc.Processor.id)
    t.entries;
  (match comm_model with
  | Parallel -> ()
  | One_port ->
      (* Communication intervals with data must not overlap pairwise. *)
      let busy =
        Array.to_list t.entries
        |> List.filter (fun e -> e.data > 0.)
        |> List.map (fun e -> (e.comm_start, e.comm_end, e.proc.Processor.id))
        |> List.sort compare
      in
      let rec check = function
        | (_, fin, id1) :: ((start, _, id2) :: _ as rest) ->
            if start +. 1e-9 < fin then
              fail "one-port violation: P%d and P%d communications overlap" id1 id2;
            check rest
        | [ _ ] | [] -> ()
      in
      check busy);
  match !problems with [] -> Ok () | msgs -> Error (String.concat "; " (List.rev msgs))

let makespan t = t.makespan

let pp ppf t =
  Format.fprintf ppf "@[<v>schedule (makespan %.6g):@," t.makespan;
  Array.iter
    (fun e ->
      Format.fprintf ppf "  P%d: data=%.6g comm=[%.6g,%.6g] compute=[%.6g,%.6g]@,"
        e.proc.Processor.id e.data e.comm_start e.comm_end e.compute_start e.compute_end)
    t.entries;
  Format.fprintf ppf "@]"
