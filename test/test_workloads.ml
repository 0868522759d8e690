(* The §1.1 application workloads: image filtering, database scans,
   streaming pipelines. *)

module Image = Workloads.Image
module Database = Workloads.Database
module Stream = Workloads.Stream
module Matrix = Linalg.Matrix
module Star = Platform.Star
module Rng = Numerics.Rng

let checkb = Alcotest.(check bool)
let checkf msg ?(eps = 1e-9) expected actual =
  Alcotest.(check (float eps)) msg expected actual

(* --- image --- *)

(* Independent reference: whole-image 2D convolution, zero padding. *)
let convolve image ~kernel =
  let r = Array.length kernel / 2 in
  let rows = Matrix.rows image and cols = Matrix.cols image in
  Matrix.init ~rows ~cols (fun i j ->
      let acc = ref 0. in
      for di = -r to r do
        for dj = -r to r do
          let si = i + di and sj = j + dj in
          if si >= 0 && si < rows && sj >= 0 && sj < cols then
            acc := !acc +. (kernel.(di + r).(dj + r) *. Matrix.get image si sj)
        done
      done;
      !acc)

let sharpen = [| [| 0.; -1.; 0. |]; [| -1.; 5.; -1. |]; [| 0.; -1.; 0. |] |]
let edge_detect = [| [| -1.; -1.; -1. |]; [| -1.; 8.; -1. |]; [| -1.; -1.; -1. |] |]

let test_box_blur_constant_image () =
  (* Blurring a constant image leaves the interior unchanged. *)
  let image = Matrix.init ~rows:10 ~cols:10 (fun _ _ -> 3.) in
  let blurred = convolve image ~kernel:(Image.box_blur 3) in
  checkf "interior preserved" 3. (Matrix.get blurred 5 5);
  (* Borders see zero padding, so they attenuate. *)
  checkb "border attenuated" true (Matrix.get blurred 0 0 < 3.)

let test_distributed_convolution_matches () =
  let rng = Rng.create ~seed:111 () in
  let image = Matrix.random rng ~rows:64 ~cols:48 in
  let star = Star.of_speeds [ 1.; 2.; 5. ] in
  let d = Image.distribute star image ~kernel:(Image.box_blur 5) in
  checkb "distributed == sequential" true
    (Matrix.approx_equal d.Image.result (convolve image ~kernel:(Image.box_blur 5)))

let test_distribution_bands_cover () =
  let rng = Rng.create ~seed:112 () in
  let image = Matrix.random rng ~rows:50 ~cols:20 in
  let star = Star.of_speeds [ 1.; 3. ] in
  let d = Image.distribute star image ~kernel:sharpen in
  let covered = Array.fold_left (fun acc (_, rows) -> acc + rows) 0 d.Image.bands in
  Alcotest.(check int) "all rows assigned" 50 covered

let test_halo_accounting () =
  let rng = Rng.create ~seed:113 () in
  let image = Matrix.random rng ~rows:40 ~cols:10 in
  let star = Star.of_speeds [ 1.; 1. ] in
  (* Two equal bands, radius 1: one halo row on each side of the cut. *)
  let d = Image.distribute star image ~kernel:sharpen in
  Alcotest.(check int) "two halo rows" 2 d.Image.halo_rows;
  checkf "communication = pixels + halo" (float_of_int ((40 + 2) * 10)) d.Image.communication

let test_bad_kernel () =
  checkb "even kernel rejected" true
    (try
       ignore (Image.box_blur 4);
       false
     with Invalid_argument _ -> true)

let qcheck_distributed_image =
  QCheck.Test.make ~name:"distributed convolution equals sequential" ~count:20
    QCheck.(pair (int_range 6 40) small_int)
    (fun (rows, seed) ->
      let rng = Rng.create ~seed () in
      let image = Matrix.random rng ~rows ~cols:12 in
      let speeds = List.init (1 + (seed mod 3)) (fun i -> float_of_int (i + 1)) in
      let star = Star.of_speeds speeds in
      QCheck.assume (rows >= Star.size star);
      let d = Image.distribute star image ~kernel:edge_detect in
      Matrix.approx_equal d.Image.result (convolve image ~kernel:edge_detect))

(* --- database --- *)

let table seed rows =
  Database.generate (Rng.create ~seed ()) ~rows ~groups:10

let test_scan_count () =
  let records = table 114 10_000 in
  let query = Database.sum_where ~name:"group0" (fun r -> r.Database.group = 0) (fun _ -> 1.) in
  let count = Database.scan query records in
  checkb "about a tenth" true (count > 800. && count < 1_200.)

let test_distributed_scan_matches () =
  let records = table 115 20_000 in
  let star = Star.of_speeds ~bandwidth:10. [ 1.; 2.; 4. ] in
  List.iter
    (fun query ->
      let execution = Database.distributed_scan star query records in
      checkf "distributed == sequential" ~eps:1e-9 (Database.scan query records)
        execution.Database.answer)
    [
      Database.sum_where ~name:"evens" (fun r -> r.Database.key mod 2 = 0) (fun _ -> 1.);
      Database.sum_where ~name:"values of group 3"
        (fun r -> r.Database.group = 3)
        (fun r -> r.Database.value);
    ]

let test_distributed_scan_covers_all () =
  let records = table 116 5_000 in
  let star = Star.of_speeds [ 1.; 5. ] in
  let query = Database.sum_where ~name:"all" (fun _ -> true) (fun _ -> 1.) in
  let execution = Database.distributed_scan star query records in
  checkf "every record scanned once" 5_000. execution.Database.answer;
  Alcotest.(check int) "shares partition" 5_000
    (Array.fold_left ( + ) 0 execution.Database.shares)

let test_distributed_scan_speedup () =
  let records = table 117 50_000 in
  let star = Star.of_speeds ~bandwidth:100. [ 1.; 1.; 1.; 1. ] in
  let query = Database.sum_where ~name:"all" (fun _ -> true) (fun _ -> 1.) in
  let execution = Database.distributed_scan star query records in
  checkb "meaningful speedup" true (execution.Database.speedup > 2.)

(* --- stream --- *)

let star_stream = Star.of_speeds ~bandwidth:8. [ 2.; 4. ]

let test_sustainable_fps_compute_bound () =
  (* Huge bandwidth: fps = Σ s / cost. *)
  let star = Star.of_speeds ~bandwidth:1e9 [ 2.; 4. ] in
  checkf "compute-bound fps" ~eps:1e-6 3. (Stream.sustainable_fps star ~frame_size:1. ~frame_cost:2.)

let test_sustainable_fps_port_bound () =
  (* Tiny frames cost nothing to compute; port limits to Σ ... the
     one-port serves at most bw/size frames through the cheapest links:
     with both links bw 8 and size 4, port serves 2 frames/time total. *)
  let star = Star.of_speeds ~bandwidth:8. [ 1e9; 1e9 ] in
  checkf "port-bound fps" ~eps:1e-6 2. (Stream.sustainable_fps star ~frame_size:4. ~frame_cost:1e-9)

let test_burst_rounds_help () =
  let span rounds =
    Stream.burst_makespan star_stream ~frames:600 ~frame_size:2. ~frame_cost:3. ~rounds
  in
  checkb "pipelining helps bursts" true (span 8 <= span 1 +. 1e-9);
  checkb "gain >= 1" true
    (Stream.pipeline_gain star_stream ~frames:600 ~frame_size:2. ~frame_cost:3. >= 1.)

let test_stream_validation () =
  checkb "bad frame rejected" true
    (try
       ignore (Stream.sustainable_fps star_stream ~frame_size:0. ~frame_cost:1.);
       false
     with Invalid_argument _ -> true)

let suites =
  [
    ( "image workload",
      [
        Alcotest.test_case "box blur constant" `Quick test_box_blur_constant_image;
        Alcotest.test_case "distributed matches" `Quick test_distributed_convolution_matches;
        Alcotest.test_case "bands cover" `Quick test_distribution_bands_cover;
        Alcotest.test_case "halo accounting" `Quick test_halo_accounting;
        Alcotest.test_case "bad kernel" `Quick test_bad_kernel;
        QCheck_alcotest.to_alcotest qcheck_distributed_image;
      ] );
    ( "database workload",
      [
        Alcotest.test_case "scan count" `Quick test_scan_count;
        Alcotest.test_case "distributed matches" `Quick test_distributed_scan_matches;
        Alcotest.test_case "covers all" `Quick test_distributed_scan_covers_all;
        Alcotest.test_case "speedup" `Quick test_distributed_scan_speedup;
      ] );
    ( "stream workload",
      [
        Alcotest.test_case "compute-bound fps" `Quick test_sustainable_fps_compute_bound;
        Alcotest.test_case "port-bound fps" `Quick test_sustainable_fps_port_bound;
        Alcotest.test_case "burst rounds help" `Quick test_burst_rounds_help;
        Alcotest.test_case "validation" `Quick test_stream_validation;
      ] );
  ]
