(* Online statistics. *)

module Rng = Numerics.Rng
module Online = Numerics.Stats.Online

let checkf msg ?(eps = 1e-9) expected actual =
  Alcotest.(check (float eps)) msg expected actual

let test_online_matches_batch () =
  let rng = Rng.create ~seed:183 () in
  let samples = Array.init 5_000 (fun _ -> Rng.uniform rng (-3.) 7.) in
  let online = Online.create () in
  Array.iter (Online.add online) samples;
  checkf "mean" ~eps:1e-9 (Numerics.Stats.mean samples) (Online.mean online);
  checkf "variance" ~eps:1e-6 (Numerics.Stats.variance samples) (Online.variance online);
  Alcotest.(check int) "count" 5_000 (Online.count online)

let test_online_merge () =
  let rng = Rng.create ~seed:184 () in
  let samples = Array.init 4_001 (fun _ -> Rng.uniform rng 0. 1.) in
  let whole = Online.create () in
  Array.iter (Online.add whole) samples;
  let left = Online.create () and right = Online.create () in
  Array.iteri (fun i x -> Online.add (if i < 1_234 then left else right) x) samples;
  let merged = Online.merge left right in
  checkf "merged mean" ~eps:1e-9 (Online.mean whole) (Online.mean merged);
  checkf "merged variance" ~eps:1e-9 (Online.variance whole) (Online.variance merged);
  Alcotest.(check int) "merged count" 4_001 (Online.count merged)

let test_online_empty_and_tiny () =
  let t = Online.create () in
  checkf "empty mean" 0. (Online.mean t);
  checkf "empty variance" 0. (Online.variance t);
  Online.add t 5.;
  checkf "single variance" 0. (Online.variance t);
  let merged = Online.merge (Online.create ()) t in
  checkf "merge with empty" 5. (Online.mean merged)

let qcheck_online =
  QCheck.Test.make ~name:"online moments equal batch moments" ~count:100
    QCheck.(array_of_size Gen.(int_range 2 200) (float_range (-50.) 50.))
    (fun samples ->
      QCheck.assume (Array.length samples >= 2);
      let online = Online.create () in
      Array.iter (Online.add online) samples;
      Float.abs (Online.mean online -. Numerics.Stats.mean samples) < 1e-7
      && Float.abs (Online.variance online -. Numerics.Stats.variance samples) < 1e-5)

let suites =
  [
    ( "online statistics",
      [
        Alcotest.test_case "matches batch" `Quick test_online_matches_batch;
        Alcotest.test_case "merge" `Quick test_online_merge;
        Alcotest.test_case "empty and tiny" `Quick test_online_empty_and_tiny;
        QCheck_alcotest.to_alcotest qcheck_online;
      ] );
  ]
