module Topology = Platform.Topology
module Star = Platform.Star
module Processor = Platform.Processor

type leaf_share = { path : int list; share : float; finish : float }
type result = { leaves : leaf_share list; makespan : float }

(* Serve [nodes] from a master whose data is complete at [start]:
   shares come from the one-port closed form over the equivalent
   workers; child [i]'s data arrives when its transfer (in activation
   order) completes, and clusters recurse from that instant. *)
let rec serve nodes ~start ~total ~path_prefix =
  let star =
    Star.create (List.mapi (fun i n -> Topology.equivalent_processor ~id:i n) nodes)
  in
  let allocation = Linear.one_port_allocation star ~total in
  let order = Linear.one_port_order star in
  let node_of = Array.of_list nodes in
  let port = ref start in
  let leaves = ref [] in
  Array.iter
    (fun rank ->
      let proc = Star.worker star rank in
      (* [Star.create] sorted the equivalents by speed; the id we set
         above recovers the position in [nodes]. *)
      let child = proc.Processor.id in
      let share = allocation.(rank) in
      if share > 0. then begin
        let arrival = !port +. Processor.transfer_time proc ~data:share in
        port := arrival;
        let path = path_prefix @ [ child ] in
        match node_of.(child) with
        | Topology.Worker real ->
            let finish = arrival +. Processor.compute_time real ~work:share in
            leaves := { path; share; finish } :: !leaves
        | Topology.Cluster { children; _ } ->
            let sub = serve children ~start:arrival ~total:share ~path_prefix:path in
            leaves := List.rev_append (List.rev sub.leaves) !leaves
      end)
    order;
  let leaves = List.rev !leaves in
  let makespan = List.fold_left (fun acc l -> Float.max acc l.finish) start leaves in
  { leaves; makespan }

let schedule nodes ~total =
  if nodes = [] then invalid_arg "Tree.schedule: empty platform";
  if total <= 0. then invalid_arg "Tree.schedule: total must be > 0";
  let result = serve nodes ~start:0. ~total ~path_prefix:[] in
  (* Depth-first order by path. *)
  { result with leaves = List.sort (fun a b -> compare a.path b.path) result.leaves }

let flat_makespan nodes ~total =
  let star = Topology.flatten nodes in
  snd (Nonlinear.equal_finish_allocation Schedule.One_port star Cost_model.Linear ~total)
