(* Multi-level (tree) DLT scheduling and the MapReduce timeline view. *)

module Tree = Dlt.Tree
module Topology = Platform.Topology
module Timeline = Mapreduce.Timeline
module Scheduler = Mapreduce.Scheduler
module Task = Mapreduce.Task
module Star = Platform.Star

let checkb = Alcotest.(check bool)
let checkf msg ?(eps = 1e-9) expected actual =
  Alcotest.(check (float eps)) msg expected actual

let worker ?(bandwidth = 2.) speed = Topology.worker ~bandwidth ~speed ()

let test_single_level_matches_closed_form () =
  let nodes = [ worker 1.; worker 2.; worker 4. ] in
  let result = Tree.schedule nodes ~total:60. in
  let star = Star.of_speeds ~bandwidth:2. [ 1.; 2.; 4. ] in
  checkf "flat tree = one-port closed form" ~eps:1e-6
    (Dlt.Linear.one_port_makespan star ~total:60.)
    result.Tree.makespan;
  checkf "shares conserved" ~eps:1e-6 60.
    (List.fold_left (fun acc l -> acc +. l.Tree.share) 0. result.Tree.leaves)

let test_two_level_conserves () =
  let cluster = Topology.cluster ~bandwidth:3. [ worker 1.; worker 2. ] in
  let nodes = [ cluster; worker 4. ] in
  let result = Tree.schedule nodes ~total:100. in
  checkf "shares conserved" ~eps:1e-6 100.
    (List.fold_left (fun acc l -> acc +. l.Tree.share) 0. result.Tree.leaves);
  Alcotest.(check int) "three leaves" 3 (List.length result.Tree.leaves)

let test_paths_identify_leaves () =
  let cluster = Topology.cluster ~bandwidth:3. [ worker 1.; worker 2. ] in
  let nodes = [ cluster; worker 4. ] in
  let result = Tree.schedule nodes ~total:100. in
  let paths = List.map (fun l -> l.Tree.path) result.Tree.leaves in
  Alcotest.(check (list (list int))) "depth-first paths" [ [ 0; 0 ]; [ 0; 1 ]; [ 1 ] ] paths

let test_flat_summary_both_directions () =
  (* The flat summary is not a bound in either direction.  A cluster
     whose internal fabric outruns its thin uplink beats the summary
     (the summary double-counts the uplink)... *)
  let fast_inside =
    [ Topology.cluster ~bandwidth:1. [ worker ~bandwidth:10. 50. ] ]
  in
  let tree_fast = (Tree.schedule fast_inside ~total:80.).Tree.makespan in
  checkb "fast fabric beats the summary" true
    (tree_fast < Tree.flat_makespan fast_inside ~total:80.);
  (* ...while a slow internal fabric behind an ample uplink loses to
     it (the summary hides the internal redistribution serialization). *)
  let slow_inside =
    [ Topology.cluster ~bandwidth:100. (List.init 3 (fun _ -> worker ~bandwidth:0.5 1.)) ]
  in
  let tree_slow = (Tree.schedule slow_inside ~total:80.).Tree.makespan in
  checkb "slow fabric loses to the summary" true
    (tree_slow > Tree.flat_makespan slow_inside ~total:80.)

let test_above_ideal_bound () =
  let cluster =
    Topology.cluster ~bandwidth:1.5 (List.init 4 (fun _ -> worker ~bandwidth:2. 1.))
  in
  let nodes = [ cluster; worker 2.; worker 3. ] in
  let result = Tree.schedule nodes ~total:80. in
  let raw_speed = List.fold_left (fun acc n -> acc +. Topology.total_speed n) 0. nodes in
  checkb "tree >= compute-only ideal" true (result.Tree.makespan >= 80. /. raw_speed)

let test_three_levels () =
  let inner = Topology.cluster ~bandwidth:2. [ worker 1.; worker 1. ] in
  let middle = Topology.cluster ~bandwidth:2. [ inner; worker 2. ] in
  let result = Tree.schedule [ middle; worker 3. ] ~total:50. in
  Alcotest.(check int) "four leaves" 4 (List.length result.Tree.leaves);
  checkf "conserved" ~eps:1e-6 50.
    (List.fold_left (fun acc l -> acc +. l.Tree.share) 0. result.Tree.leaves);
  List.iter
    (fun l -> checkb "finishes after 0" true (l.Tree.finish > 0.))
    result.Tree.leaves

let test_validation () =
  checkb "empty rejected" true
    (try
       ignore (Tree.schedule [] ~total:1.);
       false
     with Invalid_argument _ -> true);
  checkb "zero total rejected" true
    (try
       ignore (Tree.schedule [ worker 1. ] ~total:0.);
       false
     with Invalid_argument _ -> true)

let qcheck_tree_conservation =
  QCheck.Test.make ~name:"tree schedule conserves load on random topologies" ~count:100
    QCheck.small_int
    (fun seed ->
      let rng = Numerics.Rng.create ~seed () in
      let leaf () = worker (Numerics.Rng.uniform rng 0.5 5.) in
      let cluster () =
        Topology.cluster
          ~bandwidth:(Numerics.Rng.uniform rng 0.5 5.)
          (List.init (1 + Numerics.Rng.int rng 4) (fun _ -> leaf ()))
      in
      let nodes =
        List.init
          (1 + Numerics.Rng.int rng 4)
          (fun _ -> if Numerics.Rng.bool rng then leaf () else cluster ())
      in
      let result = Tree.schedule nodes ~total:30. in
      let raw_speed =
        List.fold_left (fun acc n -> acc +. Topology.total_speed n) 0. nodes
      in
      Float.abs (List.fold_left (fun acc l -> acc +. l.Tree.share) 0. result.Tree.leaves -. 30.)
      < 1e-6
      && result.Tree.makespan >= (30. /. raw_speed) -. 1e-6)

(* --- MapReduce timeline --- *)

let test_timeline_gantt () =
  let star = Star.of_speeds [ 1.; 2. ] in
  let tasks = Array.init 6 (fun i -> Task.make ~id:i ~data_ids:[| i |] ~cost:2.) in
  let outcome = Scheduler.run star ~tasks ~block_size:(fun _ -> 1.) in
  let gantt = Des.Trace.render_gantt (Timeline.trace outcome) in
  checkb "renders fetch marks" true (String.contains gantt 'f');
  checkb "renders compute marks" true (String.contains gantt 'x')

let suites =
  [
    ( "tree DLT",
      [
        Alcotest.test_case "single level" `Quick test_single_level_matches_closed_form;
        Alcotest.test_case "two levels conserve" `Quick test_two_level_conserves;
        Alcotest.test_case "paths" `Quick test_paths_identify_leaves;
        Alcotest.test_case "flat summary both directions" `Quick
          test_flat_summary_both_directions;
        Alcotest.test_case "above ideal bound" `Quick test_above_ideal_bound;
        Alcotest.test_case "three levels" `Quick test_three_levels;
        Alcotest.test_case "validation" `Quick test_validation;
        QCheck_alcotest.to_alcotest qcheck_tree_conservation;
      ] );
    ( "mapreduce timeline",
      [
        Alcotest.test_case "gantt" `Quick test_timeline_gantt;
      ] );
  ]
