(* MapReduce matrix multiplication with replicated inputs (paper §1.1,
   §2, §4.2): the N² dataset is inflated to N³/chunk map inputs, and the
   demand-driven scheduler pays the redundancy; affinity-aware
   scheduling (the paper's concluding proposal) recovers part of it.

   Run:  dune exec examples/mapreduce_matmul.exe *)

let () =
  let n = 64 and chunk = 8 in
  let rng = Numerics.Rng.create ~seed:12 () in
  let a = Linalg.Matrix.random rng ~rows:n ~cols:n in
  let b = Linalg.Matrix.random rng ~rows:n ~cols:n in
  let star = Platform.Star.of_speeds [ 1.; 2.; 4.; 8. ] in

  Printf.printf "C = A x B with n = %d, block size %d, on speeds 1,2,4,8\n\n" n chunk;
  Printf.printf "Replication factor of the map input: n/chunk = %.0f\n"
    (Mapreduce.Jobs.replication_factor ~n ~chunk);

  let job =
    Mapreduce.Jobs.matmul_replicated ~a:(Linalg.Matrix.get a) ~b:(Linalg.Matrix.get b) ~n ~chunk
  in
  Printf.printf "Map tasks: %d (one per block triple)\n\n"
    (Array.length job.Mapreduce.Engine.tasks);

  let run policy name =
    let config = { Mapreduce.Scheduler.default_config with policy } in
    let result =
      Mapreduce.Engine.run ~config star job ~reduce:(fun _ vs -> List.fold_left ( +. ) 0. vs)
    in
    Printf.printf "%-22s map comm %10.0f   shuffle %8.0f   makespan %8.1f\n" name
      result.Mapreduce.Engine.map.Mapreduce.Scheduler.communication
      result.Mapreduce.Engine.shuffle.Mapreduce.Shuffle.volume
      result.Mapreduce.Engine.makespan;
    result
  in
  let fifo = run Mapreduce.Scheduler.Fifo "demand-driven (FIFO):" in
  let affinity = run Mapreduce.Scheduler.Affinity "affinity-aware:" in

  (* Verify the MapReduce output against the direct product. *)
  let reference = Linalg.Matrix.mul a b in
  let worst = ref 0. in
  List.iter
    (fun ((i, j), v) ->
      let d = Float.abs (v -. Linalg.Matrix.get reference i j) in
      if d > !worst then worst := d)
    fifo.Mapreduce.Engine.output;
  Printf.printf "\nMapReduce result matches direct multiplication: max |diff| = %.2e\n" !worst;

  (* And the zone-based distribution the paper advocates. *)
  let zones = Linalg.Zone.for_platform star ~n in
  let stats = Linalg.Matmul.distributed ~zones a b in
  Printf.printf "\nHeterogeneity-aware zones (outer-product algorithm of Fig. 3):\n";
  Printf.printf "  communication %d words = n x sum of half-perimeters (%d)\n"
    stats.Linalg.Matmul.total
    (Linalg.Matmul.predicted_communication ~zones ~n);
  Printf.printf "  vs %.0f (FIFO MapReduce) and %.0f (affinity MapReduce)\n"
    fifo.Mapreduce.Engine.map.Mapreduce.Scheduler.communication
    affinity.Mapreduce.Engine.map.Mapreduce.Scheduler.communication
