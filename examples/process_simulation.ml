(* The discrete-event substrate, process style: the one-port
   master-worker protocol of Section 1.2 written as straight-line
   code with OCaml 5 effect handlers.

   Each worker process acquires the master's port (a capacity-1
   resource), receives its share, releases the port and computes.  The
   simulated finish times land exactly on the closed-form equal-finish
   makespan — the analytic schedule and the executable system agree.

   Run:  dune exec examples/process_simulation.exe *)

module Process = Des.Process

let () =
  let star = Platform.Star.of_speeds ~bandwidth:2. [ 1.; 1.5; 3.; 6. ] in
  let total = 120. in
  let allocation = Dlt.Linear.one_port_allocation star ~total in
  let order = Dlt.Linear.one_port_order star in

  Format.printf "Platform:@.%a@." Platform.Star.pp star;
  Printf.printf "One-port shares of %.0f units: " total;
  Array.iter (fun n -> Printf.printf "%.2f " n) allocation;
  Printf.printf "\nAnalytic makespan: %.4f\n\n"
    (Dlt.Linear.one_port_makespan star ~total);

  let world = Process.create () in
  let port = Process.resource world ~capacity:1 in
  let trace = Des.Trace.create () in

  Array.iter
    (fun i ->
      let proc = Platform.Star.worker star i in
      let name = Printf.sprintf "P%d" proc.Platform.Processor.id in
      Process.spawn world (fun () ->
          Process.with_resource port (fun () ->
              let t0 = Process.now world in
              Process.wait (Platform.Processor.transfer_time proc ~data:allocation.(i));
              Des.Trace.record trace ~resource:("link-" ^ name) ~start:t0
                ~finish:(Process.now world) ~label:"c");
          let t1 = Process.now world in
          Process.wait (Platform.Processor.compute_time proc ~work:allocation.(i));
          Des.Trace.record trace ~resource:name ~start:t1 ~finish:(Process.now world)
            ~label:"x";
          Printf.printf "%s done at t = %.4f\n" name (Process.now world)))
    order;

  Process.run world;

  Printf.printf "\nGantt (c = receiving, x = computing):\n\n%s"
    (Des.Trace.render_gantt ~width:60 trace);
  Printf.printf "\nSimulated makespan %.4f = closed form %.4f\n"
    (Des.Trace.makespan trace)
    (Dlt.Linear.one_port_makespan star ~total)
