(* Paper §2 hands-on: scheduling an N^alpha load as a divisible task.

   Solves the optimal single-round allocation on a heterogeneous star
   (the problem of Hung & Robertazzi / Suresh et al.), prints the
   schedule, and shows why the whole exercise is futile for large p:
   the round performs a vanishing fraction of the total work.

   Run:  dune exec examples/nonlinear_dlt_demo.exe *)

let () =
  let alpha = 2. in
  let cost = Dlt.Cost_model.of_alpha alpha in
  let star = Platform.Star.of_speeds ~bandwidth:4. [ 1.; 2.; 4.; 8. ] in
  let total = 1000. in

  Printf.printf "Scheduling an N^%.0f load of N = %.0f on speeds 1,2,4,8\n\n" alpha total;

  List.iter
    (fun (model, name) ->
      let allocation, makespan =
        Dlt.Nonlinear.equal_finish_allocation model star cost ~total
      in
      Printf.printf "%s model: makespan %.1f, shares:\n  " name makespan;
      Array.iter (fun x -> Printf.printf "%.1f " x) allocation;
      Printf.printf "\n";
      let schedule = Dlt.Nonlinear.schedule model star cost ~total in
      Format.printf "%a@." Dlt.Schedule.pp schedule;
      (* Event-driven replay of the schedule, as a Gantt chart. *)
      print_string (Dlt.Simulate.gantt ~width:64 schedule);
      print_newline ())
    [ (Dlt.Schedule.Parallel, "parallel-links"); (Dlt.Schedule.One_port, "one-port") ];

  (* The futility argument. *)
  Printf.printf "Fraction of the sequential work W = N^%.0f done by one round:\n" alpha;
  List.iter
    (fun p ->
      let hom = Platform.Star.of_speeds (List.init p (fun _ -> 1.)) in
      let allocation, _ =
        Dlt.Nonlinear.equal_finish_allocation Dlt.Schedule.Parallel hom cost
          ~total
      in
      Printf.printf "  p = %4d: measured %.5f   closed form p^(1-a) = %.5f\n" p
        (Dlt.Fraction.done_fraction cost ~allocation ~total)
        (Dlt.Fraction.power_partial_fraction ~alpha ~p))
    [ 2; 8; 32; 128; 512 ];
  Printf.printf
    "\nAs p grows the round does asymptotically none of the work: the sophisticated\n\
     ordering/allocation optimizations of the nonlinear-DLT literature cannot matter.\n\n";

  (* What chunking does to the executed work (divisibility implies
     linearity). *)
  let hom = Platform.Star.of_speeds [ 1. ] in
  Printf.printf "Executed work when one worker processes N = 100 in independent chunks:\n";
  List.iter
    (fun rounds ->
      let result =
        Dlt.Multi_round.run Dlt.Schedule.Parallel hom cost ~allocation:[| 100. |]
          ~rounds
      in
      let work =
        List.fold_left
          (fun acc c -> acc +. Dlt.Cost_model.work cost c.Dlt.Multi_round.data)
          0. result.Dlt.Multi_round.chunks
      in
      Printf.printf "  %4d chunks: executed work %10.1f\n" rounds work)
    [ 1; 4; 25; 100 ];
  Printf.printf
    "\n100 unit chunks cost 100 units of work - the N^2 task decomposed into\n\
     independent pieces is a different (linear!) computation: there is no free lunch.\n"
