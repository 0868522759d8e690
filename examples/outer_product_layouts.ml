(* Paper Figure 2: what each strategy ships to the workers.

   Renders the unit-square partitions of the outer-product domain for a
   heterogeneous platform: the Heterogeneous Blocks (PERI-SUM) zones,
   and the footprint of the Homogeneous Blocks demand-driven hand-out.

   Run:  dune exec examples/outer_product_layouts.exe *)

let () =
  let star = Platform.Star.of_speeds [ 1.; 1.; 2.; 4.; 4.; 12. ] in
  Format.printf "Platform:@.%a@." Platform.Star.pp star;

  (* Heterogeneous Blocks: one rectangle per worker, areas ∝ speeds. *)
  let layout = Partition.Strategies.het_layout star in
  Printf.printf "Heterogeneous Blocks (PERI-SUM column partition), zone of worker i:\n\n";
  print_string (Partition.Layout.render ~width:48 ~height:20 layout);
  Printf.printf "\nSum of half-perimeters: %.4f (lower bound %.4f)\n\n"
    (Partition.Layout.sum_half_perimeters layout)
    (Partition.Lower_bound.peri_sum ~areas:(Platform.Star.relative_speeds star));

  (* Homogeneous Blocks: identical squares handed out on demand. *)
  let n = 1. in
  let schedule = Partition.Block_hom.commhom star ~n in
  Printf.printf
    "Homogeneous Blocks: %d identical blocks of side %.4f, demand-driven owners\n"
    schedule.Partition.Block_hom.blocks schedule.Partition.Block_hom.block_side;
  Printf.printf "(blocks in hand-out order, digit = worker index):\n\n  ";
  Array.iteri
    (fun b owner ->
      if b > 0 && b mod 16 = 0 then Printf.printf "\n  ";
      Printf.printf "%x" owner)
    schedule.Partition.Block_hom.owners;
  Printf.printf "\n\nBlocks per worker: ";
  Array.iter (Printf.printf "%d ") schedule.Partition.Block_hom.per_worker;
  Printf.printf "\nCommunication: %.4f vs %.4f for Heterogeneous Blocks (ratio %.2f)\n"
    schedule.Partition.Block_hom.communication
    (Partition.Layout.communication_volume layout ~n)
    (schedule.Partition.Block_hom.communication
    /. Partition.Layout.communication_volume layout ~n);
  Printf.printf
    "\nThe fast worker's many scattered blocks are exactly the data redundancy\n\
     the paper blames on platform-oblivious (MapReduce-style) distribution.\n"
