(* Non-linear DLT (paper §2): the numerical allocation solver, the
   homogeneous closed form, and the no-free-lunch fraction. *)

module Star = Platform.Star
module Processor = Platform.Processor
module Cost_model = Dlt.Cost_model
module Nonlinear = Dlt.Nonlinear
module Linear = Dlt.Linear
module Fraction = Dlt.Fraction
module Schedule = Dlt.Schedule

let checkb = Alcotest.(check bool)
let checkf msg ?(eps = 1e-9) expected actual =
  Alcotest.(check (float eps)) msg expected actual

let hom_star p = Star.of_speeds (List.init p (fun _ -> 1.))
let het_star = Star.of_speeds ~bandwidth:2. [ 1.; 3.; 5.; 7. ]

let test_worker_share_roundtrip () =
  let proc = Processor.make ~id:1 ~speed:2. ~bandwidth:4. () in
  let cost = Cost_model.Power 2. in
  let deadline = 10. in
  let n = Nonlinear.worker_share proc cost ~offset:0. ~deadline in
  (* c·n + w·n² should hit the deadline exactly. *)
  checkf "finish = deadline" ~eps:1e-6 deadline ((0.25 *. n) +. (0.5 *. n *. n))

let test_worker_share_zero_budget () =
  let proc = Processor.make ~id:1 ~speed:1. () in
  checkf "no time, no load" 0.
    (Nonlinear.worker_share proc Cost_model.Linear ~offset:5. ~deadline:5.)

let test_homogeneous_equal_split () =
  let star = hom_star 8 in
  let allocation, _ =
    Nonlinear.equal_finish_allocation Schedule.Parallel star (Cost_model.Power 2.)
      ~total:100.
  in
  Array.iter (fun n -> checkf "N/p each" ~eps:1e-6 12.5 n) allocation

let test_homogeneous_makespan_formula () =
  let star = hom_star 4 in
  let cost = Cost_model.Power 2. in
  let _, makespan =
    Nonlinear.equal_finish_allocation Schedule.Parallel star cost ~total:100.
  in
  checkf "c·N/p + w·(N/p)^2" ~eps:1e-5 (25. +. (25. *. 25.)) makespan

let test_equal_finish_sums () =
  List.iter
    (fun model ->
      let allocation, _ =
        Nonlinear.equal_finish_allocation model het_star (Cost_model.Power 2.) ~total:50.
      in
      checkf "sums to total" ~eps:1e-6 50. (Numerics.Kahan.sum allocation))
    [ Schedule.Parallel; Schedule.One_port ]

let test_equal_finish_times_parallel () =
  let cost = Cost_model.Power 1.7 in
  let allocation, makespan =
    Nonlinear.equal_finish_allocation Schedule.Parallel het_star cost ~total:50.
  in
  Array.iteri
    (fun i n ->
      let proc = Star.worker het_star i in
      let finish = Processor.transfer_time proc ~data:n
                   +. Processor.compute_time proc ~work:(Cost_model.work cost n) in
      checkf "worker finishes at makespan" ~eps:1e-5 makespan finish)
    allocation

let test_equal_finish_times_one_port () =
  let cost = Cost_model.Power 2. in
  let allocation, makespan =
    Nonlinear.equal_finish_allocation Schedule.One_port het_star cost ~total:50.
  in
  let offset = ref 0. in
  Array.iteri
    (fun i n ->
      let proc = Star.worker het_star i in
      let fetch = Processor.transfer_time proc ~data:n in
      let finish =
        !offset +. fetch +. Processor.compute_time proc ~work:(Cost_model.work cost n)
      in
      offset := !offset +. fetch;
      checkf "sequential finish at makespan" ~eps:1e-5 makespan finish)
    allocation

let test_faster_workers_get_more () =
  let allocation, _ =
    Nonlinear.equal_finish_allocation Schedule.Parallel het_star (Cost_model.Power 2.)
      ~total:50.
  in
  for i = 0 to Array.length allocation - 2 do
    checkb "monotone in speed" true (allocation.(i) <= allocation.(i + 1) +. 1e-9)
  done

let test_alpha_one_matches_linear () =
  let allocation_nl, _ =
    Nonlinear.equal_finish_allocation Schedule.Parallel het_star Cost_model.Linear
      ~total:50.
  in
  let allocation_lin = Linear.parallel_allocation het_star ~total:50. in
  Array.iteri
    (fun i n -> checkf "matches linear closed form" ~eps:1e-6 allocation_lin.(i) n)
    allocation_nl

let test_schedule_valid () =
  List.iter
    (fun model ->
      let cost = Cost_model.Power 2. in
      let schedule = Nonlinear.schedule model het_star cost ~total:20. in
      match Schedule.validate model cost schedule with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg)
    [ Schedule.Parallel; Schedule.One_port ]

let qcheck_quadratic_closed_form =
  (* The generic root-finder must agree with the analytic positive root
     for alpha = 2 (Suresh et al.'s second-order loads). *)
  QCheck.Test.make ~name:"numeric worker_share = quadratic closed form" ~count:200
    QCheck.(
      triple (float_range 0.1 10.) (float_range 0.1 10.) (float_range 0.1 100.))
    (fun (speed, bandwidth, deadline) ->
      let proc = Processor.make ~id:1 ~speed ~bandwidth () in
      let numeric =
        Nonlinear.worker_share proc (Cost_model.Power 2.) ~offset:0.
          ~deadline
      in
      let analytic = Nonlinear.quadratic_share proc ~offset:0. ~deadline in
      Float.abs (numeric -. analytic) < 1e-6 *. (1. +. analytic))

let test_quadratic_share_zero_budget () =
  let proc = Processor.make ~id:1 ~speed:1. ~latency:5. () in
  Alcotest.(check (float 0.)) "no budget, no load" 0.
    (Nonlinear.quadratic_share proc ~offset:0. ~deadline:4.)

let test_fraction_closed_forms () =
  checkf "alpha=2, p=10" 0.1 (Fraction.power_partial_fraction ~alpha:2. ~p:10);
  checkf "alpha=3, p=4" 0.0625 (Fraction.power_partial_fraction ~alpha:3. ~p:4);
  checkf "alpha=1 keeps all" 1. (Fraction.power_partial_fraction ~alpha:1. ~p:100);
  checkf "remaining complement" 0.9 (Fraction.power_remaining_fraction ~alpha:2. ~p:10)

let test_fraction_measured_equal_split () =
  (* Equal split of N into p parts does exactly p^(1-alpha) of the work. *)
  let p = 8 and total = 200. in
  let allocation = Array.make p (total /. float_of_int p) in
  checkf "measured matches closed form" ~eps:1e-12
    (Fraction.power_partial_fraction ~alpha:2. ~p)
    (Fraction.done_fraction (Cost_model.Power 2.) ~allocation ~total)

let test_sorting_gap () =
  checkf "log p / log n" (log 8. /. log 1024.) (Fraction.sorting_gap ~n:1024. ~p:8)

let test_no_free_lunch_vanishes () =
  (* The §2 claim: the useful fraction tends to 0 as p grows. *)
  let f p = Fraction.power_partial_fraction ~alpha:2. ~p in
  checkb "decreasing" true (f 10 > f 100 && f 100 > f 1000);
  checkb "vanishing" true (f 100_000 < 1e-4)

(* --- Random solver inputs for the laws below ------------------------ *)

type instance = {
  comm : Schedule.comm_model;
  star : Star.t;
  cost : Cost_model.t;
  total : float;
}

let print_instance i =
  Printf.sprintf "%s %s total=%h workers=[%s]"
    (match i.comm with Schedule.Parallel -> "parallel" | Schedule.One_port -> "one-port")
    (match i.cost with
     | Cost_model.Linear -> "linear"
     | Cost_model.Power a -> Printf.sprintf "power(%h)" a
     | Cost_model.N_log_n -> "nlogn")
    i.total
    (String.concat "; "
       (Array.to_list
          (Array.map
             (fun (p : Processor.t) ->
               Printf.sprintf "s=%h bw=%h lat=%h" p.speed p.bandwidth p.latency)
             (Star.workers i.star))))

(* p in [1, 128], speeds in [0.01, 100], bandwidths in [0.5, 5], per-worker
   latencies below a cap that is 0 half the time.  Totals of at least 100
   keep the makespan above ~0.15: the oracle's absolute tolerances (1e-13
   on the makespan, 1e-12 on shares) then sit below the agreement law's
   1e-12 relative bound. *)
let instance_gen =
  QCheck.Gen.(
    let* p = int_range 1 128 in
    let* latency = oneof [ return 0.; float_range 1e-3 1. ] in
    let* workers =
      list_repeat p (triple (float_range 0.01 100.) (float_range 0.5 5.) (float_range 0. 1.))
    in
    let* cost =
      oneof [ map (fun a -> Cost_model.Power a) (float_range 1.05 4.); return Cost_model.N_log_n ]
    in
    let* comm = oneofl [ Schedule.Parallel; Schedule.One_port ] in
    let+ total = float_range 100. 1e4 in
    let star =
      Star.create
        (List.mapi
           (fun i (speed, bandwidth, u) ->
             Processor.make ~id:(i + 1) ~speed ~bandwidth ~latency:(latency *. u) ())
           workers)
    in
    { comm; star; cost; total })

let instance = QCheck.make ~print:print_instance instance_gen

(* Under [One_port] with a latency the solver picks its participants. *)
let selects comm star =
  comm = Schedule.One_port
  && Array.exists (fun (p : Processor.t) -> p.latency > 0.) (Star.workers star)

(* Largest violation of the equal-finish conditions, relative to [t]:
   every positive share finishes at [t] (under [One_port] transfers run
   back to back in [Linear.one_port_order]), and, unless the solver
   picks its participants, a zero share could not have finished by [t]
   either: its budget [t - offset - latency] is <= 0, i.e.
   finish(0+) >= t.  A worker left out by the selection may have a
   budget: dropping it shortened every later transfer. *)
let equal_finish_violation comm star cost allocation t =
  let order =
    match comm with
    | Schedule.Parallel -> Array.init (Star.size star) Fun.id
    | Schedule.One_port -> Linear.one_port_order star
  in
  let offset = ref 0. and worst = ref 0. in
  Array.iter
    (fun i ->
      let proc = Star.worker star i and n = allocation.(i) in
      if n > 0. then begin
        let fetch = Processor.transfer_time proc ~data:n in
        let finish =
          !offset +. fetch +. Processor.compute_time proc ~work:(Cost_model.work cost n)
        in
        worst := Float.max !worst (Float.abs (finish -. t));
        match comm with
        | Schedule.Parallel -> ()
        | Schedule.One_port -> offset := !offset +. fetch
      end
      else if not (selects comm star) then
        worst := Float.max !worst (t -. (!offset +. proc.Processor.latency)))
    order;
  !worst /. t

let qcheck_equal_finish =
  QCheck.Test.make ~name:"nonlinear solver: equal finish on random platforms" ~count:200
    instance
    (fun { comm; star; cost; total } ->
      let allocation, makespan = Nonlinear.equal_finish_allocation comm star cost ~total in
      Float.abs (Numerics.Kahan.sum allocation -. total) <= 1e-9 *. total
      && Array.for_all (fun n -> n >= 0.) allocation
      && equal_finish_violation comm star cost allocation makespan <= 1e-9)

let test_safeguarded_platforms () =
  (* Inputs that need the safeguards around Newton. *)
  let proc ?bandwidth ?latency id speed = Processor.make ?bandwidth ?latency ~id ~speed () in
  List.iter
    (fun (name, comm, procs, cost, total) ->
      let star = Star.create procs in
      let allocation, makespan = Nonlinear.equal_finish_allocation comm star cost ~total in
      checkf (name ^ ": sums to total") total (Numerics.Kahan.sum allocation);
      checkb (name ^ ": equal finish") true
        (equal_finish_violation comm star cost allocation makespan <= 1e-9))
    [
      (* The fast worker starts at T = 100.  From above the root, Newton
         jumps below every latency, where F is flat: only the bracket
         brings the iterate back. *)
      ( "latency-gated",
        Schedule.Parallel,
        [ proc ~latency:1. 1 1.; proc ~latency:100. 2 100. ],
        Cost_model.Power 2.,
        100. );
      (* The root lies ~1e-14 past T = 50, where a worker on a 1e8 link
         starts: F turns steep inside the last bracket. *)
      ( "root on a latency kink",
        Schedule.Parallel,
        [
          proc ~bandwidth:1e8 ~latency:50. 1 26.;
          proc ~bandwidth:1e8 2 50.;
          proc ~bandwidth:1e8 ~latency:25. 3 100.;
        ],
        Cost_model.Power 2.,
        100. );
      (* One worker: the upper bound is the root itself, and Newton from
         below keeps proposing it. *)
      ( "lone worker",
        Schedule.One_port,
        [ proc ~bandwidth:0.1 1 25.455427005339661 ],
        Cost_model.N_log_n,
        300. );
    ]

(* The root of [c·n + w·work(n) = budget], bisected down to adjacent
   floats. *)
let finish_root cost ~c ~w ~budget =
  let f n = (c *. n) +. (w *. Cost_model.work cost n) -. budget in
  let lo = ref 0. and hi = ref 1. in
  while f !hi < 0. do
    hi := 2. *. !hi
  done;
  let mid () = !lo +. (0.5 *. (!hi -. !lo)) in
  while mid () > !lo && mid () < !hi do
    let m = mid () in
    if f m < 0. then lo := m else hi := m
  done;
  !hi

let log_uniform lo hi =
  QCheck.Gen.map (fun u -> lo *. ((hi /. lo) ** u)) (QCheck.Gen.float_bound_inclusive 1.)

let share_step_gen =
  QCheck.Gen.(
    let* cost =
      oneof
        [
          map (fun a -> Cost_model.Power a) (float_range 1.05 4.);
          return Cost_model.N_log_n;
          return Cost_model.Linear;
        ]
    in
    let* c = log_uniform 1e-2 1e2 and* w = log_uniform 1e-2 1e2 in
    let* budget = log_uniform 1e-3 1e6 in
    let+ start = float_range (-6.) 6. in
    (cost, c, w, budget, start))

(* A coarse makespan iterate moves each share by one Newton step, and
   under [Parallel] takes [F <= 0] as proof that the iterate is below
   the makespan: that rests on this law.  The finish time is convex and
   increasing in the share, so one step from any [x > 0] lands at or
   above the root, up to the rounding of the step: within 4 ulps of the
   larger of [x] and the root (a far start cancels digits). *)
let qcheck_share_step_above_root =
  QCheck.Test.make ~name:"one Newton share step lands at or above the root" ~count:2000
    (QCheck.make
       ~print:(fun (cost, c, w, budget, start) ->
         Printf.sprintf "%s c=%h w=%h budget=%h start=root*10^%h"
           (match cost with
            | Cost_model.Linear -> "linear"
            | Cost_model.Power a -> Printf.sprintf "power(%h)" a
            | Cost_model.N_log_n -> "nlogn")
           c w budget start)
       share_step_gen)
    (fun (cost, c, w, budget, start) ->
      let root = finish_root cost ~c ~w ~budget in
      let x = root *. (10. ** start) in
      let n = Nonlinear.For_tests.share_step cost ~c ~w ~budget x in
      let big = Float.max x root in
      let ulp = Float.succ big -. big in
      Float.is_finite n && n >= root -. (4. *. ulp))

(* A fixed participant set, every latency charged, has one makespan
   because its [Σ n_i(T)] never falls as [T] grows; the participant
   selection relies on it.  Without the charge it does fall: a worker
   that joins pushes every later transfer back by its latency.  Checked
   on a grid of 257 makespans up to twice the platform's, on small
   platforms with latencies of up to 10 and totals of 1 to 100, so that
   a latency is not small against the grid's spacing. *)
let qcheck_fixed_set_monotone =
  let gen =
    QCheck.Gen.(
      let* p = int_range 1 16 in
      let* workers =
        list_repeat p (triple (float_range 0.1 10.) (float_range 0.5 5.) (float_range 0. 10.))
      in
      let* cost =
        oneof [ map (fun a -> Cost_model.Power a) (float_range 1.05 4.); return Cost_model.N_log_n ]
      in
      let+ total = float_range 1. 100. in
      let star =
        Star.create
          (List.mapi
             (fun i (speed, bandwidth, latency) ->
               Processor.make ~id:(i + 1) ~speed ~bandwidth ~latency ())
             workers)
      in
      { comm = Schedule.One_port; star; cost; total })
  in
  QCheck.Test.make ~name:"fixed-set residual is nondecreasing in the makespan" ~count:200
    (QCheck.make ~print:print_instance gen)
    (fun { star; cost; total; _ } ->
      let order = Linear.one_port_order star in
      let procs = Array.map (Star.worker star) order in
      let _, makespan = Nonlinear.equal_finish_allocation Schedule.One_port star cost ~total in
      let residual = Nonlinear.For_tests.fixed_set_residual procs cost ~total in
      let grid = List.init 257 (fun j -> residual (makespan *. float_of_int j /. 128.)) in
      let rec nondecreasing = function
        | f :: (f' :: _ as rest) -> f <= f' +. (1e-12 *. total) && nondecreasing rest
        | [ _ ] | [] -> true
      in
      nondecreasing grid)

(* Makespans within 1e-12 relative, each share within 1e-12·total.
   Shares are not compared relative to themselves: trailing one-port
   shares of ~1e-10 are ill-conditioned in both solvers. *)
let agrees total (allocation, makespan) (allocation', makespan') =
  Float.abs (makespan -. makespan') <= 1e-12 *. makespan'
  && Array.for_all2 (fun n n' -> Float.abs (n -. n') <= 1e-12 *. total) allocation allocation'

let qcheck_oracle_agreement =
  (* Under One_port with latency the oracle keeps every worker that can
     help, and [Σ n_i(T)] can drop as [T] grows (a worker that becomes
     busy delays every later transfer by its latency), so it returns one
     of several roots; the solver picks its participants and must not be
     worse.  Elsewhere the solution is unique, and the solvers must
     agree. *)
  QCheck.Test.make ~name:"Newton solver agrees with the Brent oracle" ~count:200 instance
    (fun { comm; star; cost; total } ->
      let fast = Nonlinear.equal_finish_allocation comm star cost ~total in
      let oracle = Nonlinear_oracle.equal_finish_allocation comm star cost ~total in
      if selects comm star then snd fast <= snd oracle *. (1. +. 1e-12)
      else agrees total fast oracle)

(* The serve benchmark's ratio requests: p = 64, speeds in [0.5, 8],
   alpha in [1.2, 3], totals in [100, 1e4], three decimals, either
   communication model. *)
let ratio_traffic () =
  let module Rng = Numerics.Rng in
  let rng = Rng.create ~seed:2013 () in
  let round3 x = Float.round (x *. 1000.) /. 1000. in
  List.init 1000 (fun _ ->
      let total = round3 (Rng.uniform rng 100. 10_000.) in
      let comm = if Rng.bool rng then Schedule.Parallel else Schedule.One_port in
      let cost = Cost_model.Power (round3 (Rng.uniform rng 1.2 3.)) in
      let star = Star.of_speeds (List.init 64 (fun _ -> round3 (Rng.uniform rng 0.5 8.))) in
      { comm; star; cost; total })

let test_oracle_traffic_sweep () =
  List.iter
    (fun { comm; star; cost; total } ->
      checkb "agrees with the oracle" true
        (agrees total
           (Nonlinear.equal_finish_allocation comm star cost ~total)
           (Nonlinear_oracle.equal_finish_allocation comm star cost ~total)))
    (ratio_traffic ())

(* The solver's work, counted rather than timed: on the ratio traffic
   (one makespan solve per request, no latency) each of the 64 shares
   takes about one Newton step per makespan iterate, ~4 iterates and
   ~300 steps per request under either model.  Converged sweeps at
   every iterate took ~1,000 (Parallel) and ~800 (One_port); 450 leaves
   room for rounding-level changes, not for a return to them. *)
let test_share_steps_counted () =
  let counter name = List.assoc name (Obs.Metrics.snapshot ()).Obs.Metrics.counters in
  List.iter
    (fun (label, model) ->
      let requests = List.filter (fun i -> i.comm = model) (ratio_traffic ()) in
      Obs.Metrics.reset ();
      Obs.Metrics.set_enabled true;
      Fun.protect
        ~finally:(fun () -> Obs.Metrics.set_enabled false)
        (fun () ->
          List.iter
            (fun { comm; star; cost; total } ->
              ignore (Nonlinear.equal_finish_allocation comm star cost ~total))
            requests);
      let per_request name =
        float_of_int (counter name) /. float_of_int (List.length requests)
      in
      let steps = per_request "nonlinear.share_steps" in
      let evals = per_request "nonlinear.makespan_evals" in
      Printf.printf "%s: %.1f share steps and %.2f makespan evaluations per solve\n" label
        steps evals;
      checkb (label ^ ": at most 450 share steps per solve") true (steps <= 450.);
      checkb (label ^ ": a share step per worker per evaluation") true (steps >= 64. *. evals))
    [ ("parallel", Schedule.Parallel); ("one-port", Schedule.One_port) ]

let qcheck_fraction_bounds =
  QCheck.Test.make ~name:"done_fraction in (0,1] for any split" ~count:200
    QCheck.(
      pair (array_of_size Gen.(int_range 1 20) (float_range 0.01 10.)) (float_range 1. 4.))
    (fun (parts, alpha) ->
      let total = Numerics.Kahan.sum parts in
      let f = Fraction.done_fraction (Cost_model.of_alpha alpha) ~allocation:parts ~total in
      f > 0. && f <= 1. +. 1e-9)

let suites =
  [
    ( "nonlinear DLT",
      [
        Alcotest.test_case "worker share roundtrip" `Quick test_worker_share_roundtrip;
        Alcotest.test_case "worker share zero budget" `Quick test_worker_share_zero_budget;
        Alcotest.test_case "homogeneous equal split" `Quick test_homogeneous_equal_split;
        Alcotest.test_case "homogeneous makespan" `Quick test_homogeneous_makespan_formula;
        Alcotest.test_case "allocations sum" `Quick test_equal_finish_sums;
        Alcotest.test_case "equal finish (parallel)" `Quick test_equal_finish_times_parallel;
        Alcotest.test_case "equal finish (one-port)" `Quick test_equal_finish_times_one_port;
        Alcotest.test_case "monotone in speed" `Quick test_faster_workers_get_more;
        Alcotest.test_case "alpha=1 is linear" `Quick test_alpha_one_matches_linear;
        Alcotest.test_case "schedules validate" `Quick test_schedule_valid;
        Alcotest.test_case "quadratic zero budget" `Quick test_quadratic_share_zero_budget;
        QCheck_alcotest.to_alcotest qcheck_equal_finish;
        QCheck_alcotest.to_alcotest qcheck_oracle_agreement;
        Alcotest.test_case "safeguarded platforms" `Quick test_safeguarded_platforms;
        Alcotest.test_case "oracle agreement on ratio traffic" `Quick
          test_oracle_traffic_sweep;
        Alcotest.test_case "share steps counted on ratio traffic" `Quick
          test_share_steps_counted;
        QCheck_alcotest.to_alcotest qcheck_quadratic_closed_form;
        QCheck_alcotest.to_alcotest qcheck_share_step_above_root;
        QCheck_alcotest.to_alcotest qcheck_fixed_set_monotone;
      ] );
    ( "no free lunch (fractions)",
      [
        Alcotest.test_case "closed forms" `Quick test_fraction_closed_forms;
        Alcotest.test_case "measured equal split" `Quick test_fraction_measured_equal_split;
        Alcotest.test_case "sorting gap" `Quick test_sorting_gap;
        Alcotest.test_case "fraction vanishes with p" `Quick test_no_free_lunch_vanishes;
        QCheck_alcotest.to_alcotest qcheck_fraction_bounds;
      ] );
  ]
