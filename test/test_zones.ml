(* Integer zones. *)

module Zone = Linalg.Zone
module Star = Platform.Star
module Rng = Numerics.Rng

let checkb = Alcotest.(check bool)

let test_zone_measures () =
  let z = { Zone.row0 = 2; rows = 3; col0 = 1; cols = 4 } in
  Alcotest.(check int) "area" 12 (Zone.area z);
  Alcotest.(check int) "half perimeter" 7 (Zone.half_perimeter z);
  checkb "contains" true (Zone.contains z ~row:4 ~col:4);
  checkb "excludes" false (Zone.contains z ~row:5 ~col:4)

let test_uniform_grid_tiles () =
  List.iter
    (fun (p, n) ->
      let zones = Zone.uniform_grid ~p ~n in
      Alcotest.(check int) "p zones" p (Array.length zones);
      match Zone.validate_tiling ~n zones with
      | Ok () -> ()
      | Error msg -> Alcotest.fail (Printf.sprintf "p=%d n=%d: %s" p n msg))
    [ (1, 5); (4, 8); (6, 10); (12, 13); (7, 21) ]

let test_platform_zones_tile () =
  let rng = Rng.create ~seed:21 () in
  let star = Platform.Profiles.generate rng ~p:10 Platform.Profiles.paper_uniform in
  let zones = Zone.for_platform star ~n:64 in
  match Zone.validate_tiling ~n:64 zones with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_platform_zones_proportional () =
  let star = Star.of_speeds [ 1.; 3. ] in
  let zones = Zone.for_platform star ~n:100 in
  (* Areas should be ~2500 and ~7500, apportioned on a 100x100 grid. *)
  let a0 = Zone.area zones.(0) and a1 = Zone.area zones.(1) in
  Alcotest.(check int) "total area" 10_000 (a0 + a1);
  checkb "proportional" true (abs (a1 - (3 * a0)) < 300)

let test_validate_catches_overlap () =
  let zones =
    [|
      { Zone.row0 = 0; rows = 3; col0 = 0; cols = 4 };
      { Zone.row0 = 2; rows = 2; col0 = 0; cols = 4 };
    |]
  in
  match Zone.validate_tiling ~n:4 zones with
  | Ok () -> Alcotest.fail "overlap accepted"
  | Error msg -> checkb "reports duplication" true (String.length msg > 0)

let test_validate_catches_gap () =
  let zones = [| { Zone.row0 = 0; rows = 2; col0 = 0; cols = 4 } |] in
  match Zone.validate_tiling ~n:4 zones with
  | Ok () -> Alcotest.fail "gap accepted"
  | Error _ -> ()

let qcheck_zones_tile =
  QCheck.Test.make ~name:"platform zones always tile the domain" ~count:100
    QCheck.(
      pair (list_of_size Gen.(int_range 1 12) (float_range 0.1 20.)) (int_range 4 48))
    (fun (speeds, n) ->
      let star = Star.of_speeds speeds in
      let zones = Zone.for_platform star ~n in
      match Zone.validate_tiling ~n zones with Ok () -> true | Error _ -> false)

let qcheck_zone_areas_close =
  QCheck.Test.make ~name:"zone areas within a row+col of the prescription" ~count:100
    QCheck.(
      pair (list_of_size Gen.(int_range 1 8) (float_range 0.5 10.)) (int_range 16 64))
    (fun (speeds, n) ->
      let star = Star.of_speeds speeds in
      let x = Star.relative_speeds star in
      let zones = Zone.for_platform star ~n in
      Array.for_all2
        (fun z xi ->
          let exact = xi *. float_of_int (n * n) in
          Float.abs (float_of_int (Zone.area z) -. exact) <= float_of_int (2 * n))
        zones x)

let suites =
  [
    ( "zones",
      [
        Alcotest.test_case "measures" `Quick test_zone_measures;
        Alcotest.test_case "uniform grid tiles" `Quick test_uniform_grid_tiles;
        Alcotest.test_case "platform zones tile" `Quick test_platform_zones_tile;
        Alcotest.test_case "areas proportional" `Quick test_platform_zones_proportional;
        Alcotest.test_case "overlap caught" `Quick test_validate_catches_overlap;
        Alcotest.test_case "gap caught" `Quick test_validate_catches_gap;
        QCheck_alcotest.to_alcotest qcheck_zones_tile;
        QCheck_alcotest.to_alcotest qcheck_zone_areas_close;
      ] );
  ]
