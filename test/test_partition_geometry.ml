(* Rectangles, layouts, and the communication lower bounds. *)

module Rect = Partition.Rect
module Layout = Partition.Layout
module Lower_bound = Partition.Lower_bound

let checkb = Alcotest.(check bool)
let checkf msg ?(eps = 1e-9) expected actual =
  Alcotest.(check (float eps)) msg expected actual

let rect = Rect.make ~x:0.25 ~y:0.5 ~width:0.5 ~height:0.25

let test_rect_measures () =
  checkf "area" 0.125 (Rect.area rect);
  checkf "half perimeter" 0.75 (Rect.half_perimeter rect);
  checkf "x_max" 0.75 (Rect.x_max rect);
  checkf "y_max" 0.75 (Rect.y_max rect)

let test_rect_contains () =
  checkb "inside" true (Rect.contains rect ~x:0.5 ~y:0.6);
  checkb "low edge closed" true (Rect.contains rect ~x:0.25 ~y:0.5);
  checkb "high edge open" false (Rect.contains rect ~x:0.75 ~y:0.6);
  checkb "outside" false (Rect.contains rect ~x:0.1 ~y:0.1)

let test_rect_intersection () =
  let other = Rect.make ~x:0.5 ~y:0.5 ~width:0.5 ~height:0.5 in
  checkf "overlap area" 0.0625 (Rect.intersection_area rect other);
  checkb "overlaps" true (Rect.overlaps rect other);
  let disjoint = Rect.make ~x:0.8 ~y:0. ~width:0.2 ~height:0.2 in
  checkf "no overlap" 0. (Rect.intersection_area rect disjoint);
  checkb "touching edges do not overlap" false
    (Rect.overlaps rect (Rect.make ~x:0.75 ~y:0.5 ~width:0.25 ~height:0.25))

let test_rect_negative () =
  Alcotest.check_raises "negative size" (Invalid_argument "Rect.make: negative dimensions")
    (fun () -> ignore (Rect.make ~x:0. ~y:0. ~width:(-1.) ~height:1.))

let quadrants =
  {
    Layout.rects =
      [|
        Rect.make ~x:0. ~y:0. ~width:0.5 ~height:0.5;
        Rect.make ~x:0.5 ~y:0. ~width:0.5 ~height:0.5;
        Rect.make ~x:0. ~y:0.5 ~width:0.5 ~height:0.5;
        Rect.make ~x:0.5 ~y:0.5 ~width:0.5 ~height:0.5;
      |];
  }

let test_layout_valid () =
  match Layout.validate quadrants with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_layout_measures () =
  checkf "sum half perims" 4. (Layout.sum_half_perimeters quadrants);
  checkf "comm volume" 400. (Layout.communication_volume quadrants ~n:100.)

let test_layout_detects_overlap () =
  let bad =
    {
      Layout.rects =
        [|
          Rect.make ~x:0. ~y:0. ~width:0.7 ~height:1.;
          Rect.make ~x:0.5 ~y:0. ~width:0.5 ~height:1.;
        |];
    }
  in
  match Layout.validate bad with
  | Ok () -> Alcotest.fail "overlap not detected"
  | Error msg -> checkb "mentions overlap" true (String.length msg > 0)

let test_layout_detects_gap () =
  let bad =
    {
      Layout.rects =
        [|
          Rect.make ~x:0. ~y:0. ~width:0.5 ~height:1.;
          Rect.make ~x:0.5 ~y:0. ~width:0.4 ~height:1.;
        |];
    }
  in
  match Layout.validate bad with
  | Ok () -> Alcotest.fail "gap not detected"
  | Error _ -> ()

let test_layout_detects_out_of_square () =
  let bad = { Layout.rects = [| Rect.make ~x:0.5 ~y:0. ~width:0.6 ~height:1. |] } in
  match Layout.validate bad with
  | Ok () -> Alcotest.fail "escape not detected"
  | Error _ -> ()

let test_layout_area_prescription () =
  match Layout.validate ~expected_areas:[| 0.25; 0.25; 0.25; 0.25 |] quadrants with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_layout_area_mismatch () =
  match Layout.validate ~expected_areas:[| 0.5; 0.2; 0.2; 0.1 |] quadrants with
  | Ok () -> Alcotest.fail "area mismatch not detected"
  | Error _ -> ()

let test_layout_render () =
  let picture = Layout.render ~width:8 ~height:4 quadrants in
  checkb "render covers" true (not (String.contains picture '?'))

let test_lower_bound_square_is_best () =
  (* Four equal areas: LB = 2·4·√(1/4) = 4, achieved by quadrants. *)
  checkf "LB equals optimum" 4. (Lower_bound.peri_sum ~areas:[| 0.25; 0.25; 0.25; 0.25 |]);
  checkf "peri-max LB" 1. (Lower_bound.peri_max ~areas:[| 0.25; 0.25; 0.25; 0.25 |])

let test_lower_bound_communication () =
  let star = Platform.Star.of_speeds [ 1.; 1.; 1.; 1. ] in
  (* 2N·Σ√(1/4) = 2N·2 = 4N. *)
  checkf "LBComm" 400. (Lower_bound.communication star ~n:100.)

let qcheck_lower_bound_vs_any_layout =
  (* Any valid layout's PERI-SUM is at least the lower bound of its own
     areas: here exercised on random 1-column stacks. *)
  QCheck.Test.make ~name:"column stack cost >= lower bound" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 20) (float_range 0.01 1.))
    (fun raw ->
      let total = List.fold_left ( +. ) 0. raw in
      let areas = Array.of_list (List.map (fun a -> a /. total) raw) in
      let layout =
        let y = ref 0. in
        {
          Layout.rects =
            Array.map
              (fun a ->
                let r = Rect.make ~x:0. ~y:!y ~width:1. ~height:a in
                y := !y +. a;
                r)
              areas;
        }
      in
      Layout.sum_half_perimeters layout >= Lower_bound.peri_sum ~areas -. 1e-9)

let suites =
  [
    ( "rect",
      [
        Alcotest.test_case "measures" `Quick test_rect_measures;
        Alcotest.test_case "contains" `Quick test_rect_contains;
        Alcotest.test_case "intersection" `Quick test_rect_intersection;
        Alcotest.test_case "negative rejected" `Quick test_rect_negative;
      ] );
    ( "layout",
      [
        Alcotest.test_case "valid tiling" `Quick test_layout_valid;
        Alcotest.test_case "measures" `Quick test_layout_measures;
        Alcotest.test_case "overlap detected" `Quick test_layout_detects_overlap;
        Alcotest.test_case "gap detected" `Quick test_layout_detects_gap;
        Alcotest.test_case "escape detected" `Quick test_layout_detects_out_of_square;
        Alcotest.test_case "areas prescribed" `Quick test_layout_area_prescription;
        Alcotest.test_case "area mismatch detected" `Quick test_layout_area_mismatch;
        Alcotest.test_case "render" `Quick test_layout_render;
      ] );
    ( "lower bounds",
      [
        Alcotest.test_case "square optimum" `Quick test_lower_bound_square_is_best;
        Alcotest.test_case "LBComm" `Quick test_lower_bound_communication;
        QCheck_alcotest.to_alcotest qcheck_lower_bound_vs_any_layout;
      ] );
  ]
