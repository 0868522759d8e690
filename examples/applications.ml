(* The classical divisible-load applications of §1.1, end to end:
   image filtering, database scanning, video streaming.

   These are the workloads where DLT *does* deliver — cost linear in
   the data — in contrast to the N^alpha workloads of the rest of the
   paper.

   Run:  dune exec examples/applications.exe *)

let () =
  let rng = Numerics.Rng.create ~seed:2013 () in
  let star =
    Platform.Profiles.generate ~bandwidth:50. rng ~p:6 Platform.Profiles.paper_uniform
  in
  Format.printf "Platform:@.%a@." Platform.Star.pp star;

  (* 1. Image filtering. *)
  let image = Linalg.Matrix.random rng ~rows:480 ~cols:640 in
  let d = Workloads.Image.distribute star image ~kernel:(Workloads.Image.box_blur 5) in
  Printf.printf "\n1. Image filter (480x640, 5x5 blur), DLT row bands:\n";
  Printf.printf "   bands (rows): ";
  Array.iter (fun (_, rows) -> Printf.printf "%d " rows) d.Workloads.Image.bands;
  Printf.printf "\n   halo overhead: %d rows (%.2f%% extra communication)\n"
    d.Workloads.Image.halo_rows
    (100. *. (d.Workloads.Image.communication /. (480. *. 640.) -. 1.));
  Printf.printf "   makespan %.1f vs %.1f sequential on the fastest worker\n"
    d.Workloads.Image.makespan
    (480. *. 640. /. (Platform.Star.fastest star).Platform.Processor.speed);

  (* 2. Database scan. *)
  let records = Workloads.Database.generate rng ~rows:200_000 ~groups:16 in
  let query =
    Workloads.Database.sum_where ~name:"sum(value) where group < 4"
      (fun r -> r.Workloads.Database.group < 4)
      (fun r -> r.Workloads.Database.value)
  in
  let execution = Workloads.Database.distributed_scan star query records in
  Printf.printf "\n2. Database scan (200k records, one-port DLT):\n";
  Printf.printf "   answer %.1f (sequential %.1f), makespan %.1f, speedup %.2f\n"
    execution.Workloads.Database.answer
    (Workloads.Database.scan query records)
    execution.Workloads.Database.makespan execution.Workloads.Database.speedup;

  (* 3. Video stream. *)
  let frame_size = 100. and frame_cost = 40. in
  Printf.printf "\n3. Video stream (frames: %.0f data units, %.0f work units):\n" frame_size
    frame_cost;
  Printf.printf "   sustainable rate %.3f frames/time (one-port steady state)\n"
    (Workloads.Stream.sustainable_fps star ~frame_size ~frame_cost);
  Printf.printf "   burst of 1000 frames: pipelining gain %.2fx over single-shot dispatch\n"
    (Workloads.Stream.pipeline_gain star ~frames:1000 ~frame_size ~frame_cost)
