(* Hierarchical platforms, CSV output. *)

module Topology = Platform.Topology
module Star = Platform.Star
module Processor = Platform.Processor
module Csv_out = Experiments.Csv_out
module Rng = Numerics.Rng

let checkb = Alcotest.(check bool)
let checkf msg ?(eps = 1e-9) expected actual =
  Alcotest.(check (float eps)) msg expected actual

(* --- topology --- *)

let test_flat_workers_unchanged () =
  let nodes = [ Topology.worker ~speed:2. (); Topology.worker ~speed:3. () ] in
  let star = Topology.flatten nodes in
  checkf "total speed preserved" 5. (Star.total_speed star);
  Alcotest.(check int) "two workers" 2 (Star.size star)

let test_cluster_uplink_limits () =
  (* Four speed-10 workers behind a bandwidth-1 uplink absorb at most 1
     load/time in steady state. *)
  let inner = List.init 4 (fun _ -> Topology.worker ~bandwidth:100. ~speed:10. ()) in
  let node = Topology.cluster ~bandwidth:1. inner in
  let proc = Topology.equivalent_processor node in
  checkf "uplink-bound speed" 1. proc.Processor.speed;
  checkf "uplink bandwidth kept" 1. proc.Processor.bandwidth

let test_cluster_internal_limit () =
  (* A huge uplink does not help if the gateway's port and children's
     links saturate first: 2 children, speed 3 each, bandwidth 2 each →
     one-port throughput = min(3,2·leftover)… greedy: first child rate
     min(3, 2·1)=2 (uses port fully), second gets 0 → 2? Greedy: child1
     affordable 2, rate 2, port spent; total 2. *)
  let inner = List.init 2 (fun _ -> Topology.worker ~bandwidth:2. ~speed:3. ()) in
  let node = Topology.cluster ~bandwidth:1e6 inner in
  let proc = Topology.equivalent_processor node in
  checkf "internal one-port bound" 2. proc.Processor.speed

let test_nested_clusters () =
  let leafs = List.init 3 (fun _ -> Topology.worker ~bandwidth:10. ~speed:1. ()) in
  let mid = Topology.cluster ~bandwidth:10. leafs in
  let top = Topology.cluster ~bandwidth:2. [ mid; Topology.worker ~speed:1. () ] in
  Alcotest.(check int) "leaf count" 4 (Topology.leaf_count top);
  checkf "raw speed" 4. (Topology.total_speed top);
  let proc = Topology.equivalent_processor top in
  (* mid aggregates to speed 3 (internal), capped by its own uplink 10 →
     3; top children = {speed 3 bw 10, speed 1 bw 1}: greedy fills the
     bw-10 node (3 rate, 0.3 port), then 0.7·1 = 0.7 → total 3.7, capped
     by uplink 2. *)
  checkf "nested aggregation" 2. proc.Processor.speed

let test_aggregation_loss () =
  let nodes =
    [ Topology.cluster ~bandwidth:1. [ Topology.worker ~bandwidth:10. ~speed:9. () ] ]
  in
  checkf "8/9 lost" (8. /. 9.) (Topology.aggregation_loss nodes)

let test_empty_cluster_rejected () =
  checkb "empty rejected" true
    (try
       ignore (Topology.cluster []);
       false
     with Invalid_argument _ -> true)

let qcheck_aggregation_bounded =
  QCheck.Test.make ~name:"aggregated speed never exceeds raw speed or uplink" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 6) (pair (float_range 0.1 10.) (float_range 0.1 10.)))
        (float_range 0.1 10.))
    (fun (children, uplink) ->
      QCheck.assume (children <> []);
      let nodes =
        List.map (fun (s, bw) -> Topology.worker ~bandwidth:bw ~speed:s ()) children
      in
      let node = Topology.cluster ~bandwidth:uplink nodes in
      let proc = Topology.equivalent_processor node in
      proc.Processor.speed <= uplink +. 1e-9
      && proc.Processor.speed <= Topology.total_speed node +. 1e-9
      && proc.Processor.speed > 0.)

(* --- CSV --- *)

let test_csv_plain () =
  Alcotest.(check string) "simple" "a,b\n1,2\n"
    (Csv_out.to_string ~header:[ "a"; "b" ] ~rows:[ [ "1"; "2" ] ])

let test_csv_quoting () =
  Alcotest.(check string) "escaped" "\"a,b\"\n\"say \"\"hi\"\"\"\n"
    (Csv_out.to_string ~header:[ "a,b" ] ~rows:[ [ "say \"hi\"" ] ])

let test_csv_width_checked () =
  checkb "width mismatch rejected" true
    (try
       ignore (Csv_out.to_string ~header:[ "a"; "b" ] ~rows:[ [ "1" ] ]);
       false
     with Invalid_argument _ -> true)

let test_csv_roundtrip_file () =
  let path = Filename.temp_file "nldl" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv_out.write ~path ~header:[ "x" ] ~rows:[ [ "1" ]; [ "2" ] ];
      let ic = open_in path in
      let content = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) "file content" "x\n1\n2\n" content)

let test_fig4_csv_shape () =
  let points =
    Experiments.Fig4.sweep ~processor_counts:[ 10 ] ~trials:2
      Platform.Profiles.paper_homogeneous
  in
  let t = Experiments.Fig4.table ~title:"F" points in
  Alcotest.(check int) "10 columns" 10 (List.length t.Experiments.Report.header);
  Alcotest.(check int) "1 row" 1 (List.length t.Experiments.Report.rows);
  checkb "rows as wide as the header" true
    (List.for_all (fun r -> List.length r = 10) t.Experiments.Report.rows)

let suites =
  [
    ( "topology",
      [
        Alcotest.test_case "flat workers unchanged" `Quick test_flat_workers_unchanged;
        Alcotest.test_case "uplink limits" `Quick test_cluster_uplink_limits;
        Alcotest.test_case "internal limit" `Quick test_cluster_internal_limit;
        Alcotest.test_case "nested clusters" `Quick test_nested_clusters;
        Alcotest.test_case "aggregation loss" `Quick test_aggregation_loss;
        Alcotest.test_case "empty cluster rejected" `Quick test_empty_cluster_rejected;
        QCheck_alcotest.to_alcotest qcheck_aggregation_bounded;
      ] );
    ( "csv output",
      [
        Alcotest.test_case "plain" `Quick test_csv_plain;
        Alcotest.test_case "quoting" `Quick test_csv_quoting;
        Alcotest.test_case "width checked" `Quick test_csv_width_checked;
        Alcotest.test_case "file roundtrip" `Quick test_csv_roundtrip_file;
        Alcotest.test_case "fig4 csv" `Quick test_fig4_csv_shape;
      ] );
  ]
