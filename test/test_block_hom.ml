(* Homogeneous Blocks (Commhom / Commhom-over-k) and its demand-driven
   scheduler. *)

module Star = Platform.Star
module Block_hom = Partition.Block_hom
module Lower_bound = Partition.Lower_bound

let checkb = Alcotest.(check bool)
let checkf msg ?(eps = 1e-9) expected actual =
  Alcotest.(check (float eps)) msg expected actual

let hom16 = Star.of_speeds (List.init 16 (fun _ -> 1.))
let het = Star.of_speeds [ 1.; 1.; 2.; 4. ]

let test_block_count_homogeneous () =
  (* x1 = 1/p, so the paper's block count is p·k². *)
  Alcotest.(check int) "k=1" 16 (Block_hom.block_count hom16 ~k:1);
  Alcotest.(check int) "k=3" 144 (Block_hom.block_count hom16 ~k:3)

let test_homogeneous_perfect_balance () =
  let r = Block_hom.commhom hom16 ~n:1e4 in
  checkf "no imbalance" 0. r.Block_hom.imbalance;
  Array.iter (fun b -> Alcotest.(check int) "one block each" 1 b) r.Block_hom.per_worker

let test_homogeneous_matches_lower_bound () =
  let r = Block_hom.commhom hom16 ~n:1e4 in
  checkf "ratio exactly 1" ~eps:1e-9 1.
    (r.Block_hom.communication /. Lower_bound.communication hom16 ~n:1e4)

let test_communication_formula () =
  let r = Block_hom.demand_driven het ~n:1000. ~k:2 in
  checkf "blocks·2·side" ~eps:1e-9
    (float_of_int r.Block_hom.blocks *. 2. *. r.Block_hom.block_side)
    r.Block_hom.communication

let test_all_blocks_assigned () =
  let r = Block_hom.demand_driven het ~n:1000. ~k:3 in
  Alcotest.(check int) "per_worker sums to blocks" r.Block_hom.blocks
    (Array.fold_left ( + ) 0 r.Block_hom.per_worker);
  Alcotest.(check int) "owners length" r.Block_hom.blocks
    (Array.length r.Block_hom.owners)

let test_demand_driven_favors_fast () =
  let r = Block_hom.demand_driven het ~n:1000. ~k:4 in
  let per = r.Block_hom.per_worker in
  checkb "fastest gets most blocks" true (per.(3) >= per.(0));
  (* Speed 4 worker should get roughly 4x the blocks of a speed 1 one. *)
  checkb "roughly proportional" true
    (float_of_int per.(3) /. float_of_int (max 1 per.(0)) > 2.)

let test_imbalance_decreases_with_k () =
  let e k = (Block_hom.demand_driven het ~n:1000. ~k).Block_hom.imbalance in
  checkb "k=8 better balanced than k=1" true (e 8 < e 1 || e 1 = 0.)

let test_commhom_over_k_meets_target () =
  let r = Block_hom.commhom_over_k ~target_imbalance:0.05 het ~n:1000. in
  checkb "imbalance under target" true (r.Block_hom.imbalance <= 0.05);
  checkb "k at least 1" true (r.Block_hom.k >= 1)

let test_commhom_over_k_max_cap () =
  let r = Block_hom.commhom_over_k ~target_imbalance:0. ~max_k:3 het ~n:1000. in
  checkb "stops at max_k" true (r.Block_hom.k <= 3)

let test_makespan_consistent () =
  let r = Block_hom.demand_driven het ~n:1000. ~k:2 in
  let tmax = Array.fold_left Float.max 0. r.Block_hom.finish_times in
  checkf "makespan is max finish" tmax r.Block_hom.makespan

let test_invalid_inputs () =
  Alcotest.check_raises "n must be positive"
    (Invalid_argument "Block_hom.demand_driven: n must be > 0") (fun () ->
      ignore (Block_hom.demand_driven het ~n:0. ~k:1));
  Alcotest.check_raises "k must be positive"
    (Invalid_argument "Block_hom.demand_driven: k must be > 0") (fun () ->
      ignore (Block_hom.demand_driven het ~n:10. ~k:0))

let qcheck_comm_grows_with_k =
  QCheck.Test.make ~name:"communication tracks the closed form 2nk/sqrt(x1)" ~count:100
    QCheck.(pair (list_of_size Gen.(int_range 1 8) (float_range 0.5 8.)) (int_range 1 6))
    (fun (speeds, k) ->
      QCheck.assume (speeds <> [] && k >= 1);
      let star = Star.of_speeds speeds in
      let n = 100. in
      let x1 = (Star.relative_speeds star).(0) in
      let comm = (Block_hom.demand_driven star ~n ~k).Block_hom.communication in
      let ideal = 2. *. n *. float_of_int k /. sqrt x1 in
      (* Block-count rounding moves the volume by at most one block's
         worth of data, 2·√x1·n/k. *)
      Float.abs (comm -. ideal) <= (2. *. sqrt x1 *. n /. float_of_int k) +. 1e-6)

let qcheck_work_conserved =
  QCheck.Test.make ~name:"demand-driven executes all the area" ~count:100
    QCheck.(pair (list_of_size Gen.(int_range 1 10) (float_range 0.2 10.)) (int_range 1 5))
    (fun (speeds, k) ->
      QCheck.assume (speeds <> [] && k >= 1);
      let star = Star.of_speeds speeds in
      let r = Block_hom.demand_driven star ~n:50. ~k in
      let executed =
        float_of_int r.Block_hom.blocks *. r.Block_hom.block_side *. r.Block_hom.block_side
      in
      (* Block-count rounding keeps the executed area within one block
         of n². *)
      Float.abs (executed -. 2500.) <= (r.Block_hom.block_side ** 2.) +. 1e-6)

let suites =
  [
    ( "homogeneous blocks",
      [
        Alcotest.test_case "block count" `Quick test_block_count_homogeneous;
        Alcotest.test_case "perfect balance (hom)" `Quick test_homogeneous_perfect_balance;
        Alcotest.test_case "achieves LB (hom)" `Quick test_homogeneous_matches_lower_bound;
        Alcotest.test_case "communication formula" `Quick test_communication_formula;
        Alcotest.test_case "all blocks assigned" `Quick test_all_blocks_assigned;
        Alcotest.test_case "demand-driven favors fast" `Quick test_demand_driven_favors_fast;
        Alcotest.test_case "imbalance decreases with k" `Quick test_imbalance_decreases_with_k;
        Alcotest.test_case "hom/k meets target" `Quick test_commhom_over_k_meets_target;
        Alcotest.test_case "hom/k caps at max_k" `Quick test_commhom_over_k_max_cap;
        Alcotest.test_case "makespan consistent" `Quick test_makespan_consistent;
        Alcotest.test_case "invalid inputs" `Quick test_invalid_inputs;
        QCheck_alcotest.to_alcotest qcheck_comm_grows_with_k;
        QCheck_alcotest.to_alcotest qcheck_work_conserved;
      ] );
  ]
