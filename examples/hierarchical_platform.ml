(* Beyond the flat star: aggregate a grid of clusters into the paper's
   star model, then schedule on the equivalent platform.

   Shows (1) steady-state aggregation of sub-clusters into equivalent
   workers, (2) how much compute power the uplinks destroy, and (3)
   solving the affine (latency) one-port DLT — participant selection
   included — on the flattened platform.

   Run:  dune exec examples/hierarchical_platform.exe *)

let () =
  (* Three sites: a fast local cluster, a remote cluster behind a thin
     uplink, and a lone workstation with noticeable latency. *)
  let local =
    Platform.Topology.cluster ~bandwidth:8.
      (List.init 4 (fun _ -> Platform.Topology.worker ~bandwidth:4. ~speed:2. ()))
  in
  let remote =
    Platform.Topology.cluster ~bandwidth:1.5 ~latency:0.2
      (List.init 16 (fun _ -> Platform.Topology.worker ~bandwidth:2. ~speed:1. ()))
  in
  let workstation = Platform.Topology.worker ~bandwidth:1. ~latency:2. ~speed:3. () in
  let nodes = [ local; remote; workstation ] in

  Printf.printf "Raw platform: %d leaf workers, total speed %.1f\n"
    (List.fold_left (fun acc n -> acc + Platform.Topology.leaf_count n) 0 nodes)
    (List.fold_left (fun acc n -> acc +. Platform.Topology.total_speed n) 0. nodes);

  let star = Platform.Topology.flatten nodes in
  Format.printf "@.Equivalent star (steady-state aggregation):@.%a@." Platform.Star.pp star;
  Printf.printf "Aggregation loss: %.1f%% of raw compute power is stranded behind uplinks\n\n"
    (100. *. Platform.Topology.aggregation_loss nodes);

  (* Steady-state throughput of the flattened platform. *)
  let steady = Dlt.Steady_state.one_port star in
  Printf.printf "One-port steady-state throughput: %.3f load/time (efficiency %.1f%%)\n"
    steady.Dlt.Steady_state.throughput
    (100. *. Dlt.Steady_state.efficiency star);
  Printf.printf "Per-site rates: ";
  Array.iter (fun r -> Printf.printf "%.3f " r) steady.Dlt.Steady_state.rates;

  (* A finite batch with the affine (latency-aware) model: the
     equal-finish solver picks the participants. *)
  let total = 500. in
  let allocation, makespan =
    Dlt.Nonlinear.equal_finish_allocation Dlt.Schedule.One_port star Dlt.Cost_model.Linear
      ~total
  in
  Printf.printf "\n\nBatch of %.0f units, affine one-port solver:\n" total;
  Printf.printf "  participants: %s\n"
    (String.concat ", "
       (List.filter_map
          (fun i -> if allocation.(i) > 0. then Some (Printf.sprintf "worker %d" i) else None)
          (Array.to_list (Dlt.Linear.one_port_order star))));
  Printf.printf "  shares: ";
  Array.iter (fun n -> Printf.printf "%.1f " n) allocation;
  Printf.printf "\n  makespan: %.2f\n" makespan;

  (* Does the dispatch order matter here? *)
  Printf.printf "\nDispatch-order sensitivity (worst/best - 1): %.4f\n"
    (Dlt.Ordering.order_spread star ~total);

  (* The real multi-level schedule, store-and-forward through the
     gateways. *)
  let tree = Dlt.Tree.schedule nodes ~total in
  Printf.printf "\nTree schedule (store-and-forward through gateways):\n";
  List.iter
    (fun (l : Dlt.Tree.leaf_share) ->
      Printf.printf "  leaf %-8s share %7.2f  finishes at %.2f\n"
        (String.concat "." (List.map string_of_int l.Dlt.Tree.path))
        l.Dlt.Tree.share l.Dlt.Tree.finish)
    tree.Dlt.Tree.leaves;
  Printf.printf "  tree makespan %.2f vs flat summary %.2f\n" tree.Dlt.Tree.makespan
    (Dlt.Tree.flat_makespan nodes ~total)
