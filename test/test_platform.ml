(* Platform model: processors, star platforms, profiles, metrics. *)

module Processor = Platform.Processor
module Star = Platform.Star
module Profiles = Platform.Profiles
module Metrics = Platform.Metrics

let checkb = Alcotest.(check bool)
let checkf msg ?(eps = 1e-9) expected actual =
  Alcotest.(check (float eps)) msg expected actual

let test_processor_accessors () =
  let p = Processor.make ~id:1 ~speed:4. ~bandwidth:2. ~latency:0.5 () in
  checkf "w" 0.25 (Processor.w p);
  checkf "c" 0.5 (Processor.c p);
  checkf "compute" 2.5 (Processor.compute_time p ~work:10.);
  checkf "transfer" 5.5 (Processor.transfer_time p ~data:10.);
  checkf "empty transfer free" 0. (Processor.transfer_time p ~data:0.)

let test_processor_validation () =
  Alcotest.check_raises "bad speed" (Invalid_argument "Processor.make: speed must be positive")
    (fun () -> ignore (Processor.make ~id:1 ~speed:0. ()));
  Alcotest.check_raises "bad latency"
    (Invalid_argument "Processor.make: latency must be non-negative") (fun () ->
      ignore (Processor.make ~id:1 ~speed:1. ~latency:(-1.) ()))

let test_star_sorted () =
  let star = Star.of_speeds [ 3.; 1.; 2. ] in
  Alcotest.(check (list (float 0.)))
    "speeds sorted ascending" [ 1.; 2.; 3. ]
    (Array.to_list (Star.speeds star))

let test_star_totals () =
  let star = Star.of_speeds [ 1.; 2.; 3. ] in
  checkf "total speed" 6. (Star.total_speed star);
  checkf "relative sum" 1. (Numerics.Kahan.sum (Star.relative_speeds star));
  checkf "slowest" 1. (Star.slowest star).Processor.speed;
  checkf "fastest" 3. (Star.fastest star).Processor.speed

let test_star_empty () =
  Alcotest.check_raises "empty platform"
    (Invalid_argument "Star.create: at least one worker required") (fun () ->
      ignore (Star.of_speeds []))

let test_workers_copy () =
  let star = Star.of_speeds [ 1.; 2. ] in
  let workers = Star.workers star in
  workers.(0) <- Processor.make ~id:99 ~speed:100. ();
  checkf "platform unaffected" 1. (Star.worker star 0).Processor.speed

let generate profile p =
  Profiles.generate (Numerics.Rng.create ~seed:123 ()) ~p profile

let test_profile_sizes () =
  List.iter
    (fun profile ->
      Alcotest.(check int)
        (Profiles.name profile ^ " size")
        17
        (Star.size (generate profile 17)))
    [ Profiles.paper_homogeneous; Profiles.paper_uniform; Profiles.paper_lognormal ]

let test_profile_homogeneous () =
  checkb "all speed 1" true
    (Array.for_all (fun s -> s = 1.) (Star.speeds (generate Profiles.paper_homogeneous 10)))

let test_profile_uniform_range () =
  let star = generate Profiles.paper_uniform 200 in
  Array.iter
    (fun s -> checkb "uniform in [1,100)" true (s >= 1. && s < 100.))
    (Star.speeds star)

let test_profile_bimodal () =
  let star = generate (Profiles.Bimodal { slow = 2.; factor = 5. }) 10 in
  let speeds = Star.speeds star in
  checkb "five slow" true (Array.for_all (fun s -> s = 2.) (Array.sub speeds 0 5));
  checkb "five fast" true (Array.for_all (fun s -> s = 10.) (Array.sub speeds 5 5))

let test_profile_bimodal_odd () =
  let star = generate (Profiles.Bimodal { slow = 1.; factor = 3. }) 5 in
  let slow_count = Array.fold_left (fun acc s -> if s = 1. then acc + 1 else acc) 0 (Star.speeds star) in
  Alcotest.(check int) "odd platform split" 3 slow_count

let test_profile_names () =
  List.iter
    (fun name ->
      match Profiles.of_name name with
      | Some profile -> Alcotest.(check string) "roundtrip" name (Profiles.name profile)
      | None -> Alcotest.fail ("unknown profile " ^ name))
    [ "homogeneous"; "uniform"; "lognormal"; "bimodal" ];
  checkb "bogus name rejected" true (Profiles.of_name "bogus" = None)

let test_metrics_bimodal_bound () =
  checkf "k=1 bound" 1. (Metrics.bimodal_rho_bound ~factor:1.);
  checkf "k=9 bound" 2.5 (Metrics.bimodal_rho_bound ~factor:9.)

let test_metrics_hom_over_het () =
  (* Homogeneous platform: (4/7)·p/(1·p) = 4/7. *)
  let star = Star.of_speeds [ 1.; 1.; 1. ] in
  checkf "homogeneous bound 4/7" (4. /. 7.) (Metrics.hom_over_het_bound star)

let qcheck_relative_speeds =
  QCheck.Test.make ~name:"relative speeds sum to 1 and order preserved" ~count:200
    QCheck.(array_of_size Gen.(int_range 1 40) (float_range 0.01 1000.))
    (fun speeds ->
      let star = Star.of_speeds (Array.to_list speeds) in
      let x = Star.relative_speeds star in
      Float.abs (Numerics.Kahan.sum x -. 1.) < 1e-9
      && Array.for_all Fun.id (Array.init (Array.length x - 1) (fun i -> x.(i) <= x.(i + 1) +. 1e-12)))

(* [Star.create] sorts an index permutation on unboxed speeds; the
   worker order, ties included, must be the one [Array.stable_sort]
   gives the records.  Speeds come from a small grid so ties are
   common; the ids tell tied workers apart. *)
let qcheck_star_order_is_stable_sort =
  QCheck.Test.make ~name:"worker order = Array.stable_sort on speeds with ties" ~count:500
    QCheck.(
      list_of_size Gen.(int_range 1 70)
        (make ~print:string_of_float
           Gen.(oneof [ map (fun k -> float_of_int k /. 4.) (int_range 1 12); float_range 0.01 10. ])))
    (fun speeds ->
      let procs = List.mapi (fun i speed -> Processor.make ~id:i ~speed ()) speeds in
      let expected = Array.of_list procs in
      Array.stable_sort (fun (a : Processor.t) b -> Float.compare a.speed b.speed) expected;
      Array.map (fun (p : Processor.t) -> p.id) expected
      = Array.map (fun (p : Processor.t) -> p.id) (Star.workers (Star.create procs)))

(* [Star.of_speeds] builds the sorted workers directly; it must give
   the platform [Star.create] gives on the [Processor.make] records,
   total speed bit for bit, and raise what that path raises. *)
let qcheck_of_speeds_is_create =
  QCheck.Test.make ~name:"of_speeds = create on Processor.make records" ~count:500
    QCheck.(
      triple
        (list_of_size Gen.(int_range 0 70)
           (make ~print:string_of_float
              Gen.(oneof [ map (fun k -> float_of_int k /. 4.) (int_range 0 12); float_range 0.01 10. ])))
        (make ~print:string_of_float Gen.(oneofl [ 1.; 2.5; 0.; -1. ]))
        (make ~print:string_of_float Gen.(oneofl [ 0.; 0.01; -0.5 ])))
    (fun (speeds, bandwidth, latency) ->
      let outcome f = match f () with s -> Ok s | exception Invalid_argument m -> Error m in
      let via_create =
        outcome (fun () ->
            Star.create
              (List.mapi
                 (fun i speed -> Processor.make ~bandwidth ~latency ~id:(i + 1) ~speed ())
                 speeds))
      in
      match (outcome (fun () -> Star.of_speeds ~bandwidth ~latency speeds), via_create) with
      | Ok a, Ok b ->
          Star.workers a = Star.workers b
          && Int64.equal
               (Int64.bits_of_float (Star.total_speed a))
               (Int64.bits_of_float (Star.total_speed b))
      | Error a, Error b -> a = b
      | _ -> false)

let suites =
  [
    ( "processor",
      [
        Alcotest.test_case "accessors" `Quick test_processor_accessors;
        Alcotest.test_case "validation" `Quick test_processor_validation;
      ] );
    ( "star platform",
      [
        Alcotest.test_case "sorted by speed" `Quick test_star_sorted;
        Alcotest.test_case "totals" `Quick test_star_totals;
        Alcotest.test_case "empty rejected" `Quick test_star_empty;
        Alcotest.test_case "workers returns copy" `Quick test_workers_copy;
        QCheck_alcotest.to_alcotest qcheck_relative_speeds;
        QCheck_alcotest.to_alcotest qcheck_star_order_is_stable_sort;
        QCheck_alcotest.to_alcotest qcheck_of_speeds_is_create;
      ] );
    ( "profiles",
      [
        Alcotest.test_case "sizes" `Quick test_profile_sizes;
        Alcotest.test_case "homogeneous" `Quick test_profile_homogeneous;
        Alcotest.test_case "uniform range" `Quick test_profile_uniform_range;
        Alcotest.test_case "bimodal halves" `Quick test_profile_bimodal;
        Alcotest.test_case "bimodal odd p" `Quick test_profile_bimodal_odd;
        Alcotest.test_case "name roundtrip" `Quick test_profile_names;
      ] );
    ( "metrics",
      [
        Alcotest.test_case "bimodal bound" `Quick test_metrics_bimodal_bound;
        Alcotest.test_case "hom/het bound" `Quick test_metrics_hom_over_het;
      ] );
  ]
