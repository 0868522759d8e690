(* Quickstart: the library in five minutes.

   Build and run:  dune exec examples/quickstart.exe

   1. Why non-linear loads are not divisible (paper §2).
   2. How to partition a non-linear workload on a heterogeneous
      platform instead (paper §4), and what it saves. *)

let () =
  Printf.printf "nldl quickstart (library version %s)\n\n" Cli.version;

  (* --- 1. The no-free-lunch effect ------------------------------------ *)
  Printf.printf "1. Fraction of an N^2 workload left undone by one DLT round:\n";
  List.iter
    (fun p ->
      Printf.printf "   p = %4d  ->  %.4f\n" p
        (Dlt.Fraction.power_remaining_fraction ~alpha:2. ~p))
    [ 2; 10; 100; 1000 ];
  Printf.printf "   (tends to 1: with many workers the divisible round is useless)\n\n";

  (* --- 2. A heterogeneous platform ------------------------------------ *)
  let rng = Numerics.Rng.create ~seed:42 () in
  let star = Platform.Profiles.generate rng ~p:8 Platform.Profiles.paper_uniform in
  Format.printf "2. A random platform (speeds uniform in [1,100]):@.%a@." Platform.Star.pp
    star;

  (* --- 3. Classical linear DLT still works ---------------------------- *)
  let allocation = Dlt.Linear.parallel_allocation star ~total:1000. in
  Printf.printf "3. Optimal linear-DLT shares of 1000 units:\n   ";
  Array.iter (fun n -> Printf.printf "%.1f " n) allocation;
  Printf.printf "\n   makespan %.2f (all workers finish simultaneously)\n\n"
    (Dlt.Linear.parallel_makespan star ~total:1000.);

  (* --- 4. Non-linear loads need data-aware partitioning --------------- *)
  let r = Partition.Strategies.evaluate star in
  Printf.printf "4. Outer-product communication vs the lower bound on this platform:\n";
  Printf.printf "   Heterogeneous Blocks (PERI-SUM):    %.3f x LB\n" r.Partition.Strategies.het;
  Printf.printf "   Homogeneous Blocks  (MapReduce):    %.3f x LB\n" r.Partition.Strategies.hom;
  Printf.printf "   Homogeneous Blocks / k (balanced):  %.3f x LB (k = %d)\n"
    r.Partition.Strategies.hom_over_k r.Partition.Strategies.k;
  Printf.printf
    "\n   Taking heterogeneity into account when cutting the data saves a factor %.1f.\n"
    (r.Partition.Strategies.hom_over_k /. r.Partition.Strategies.het)
