(* Dense matrices. *)

module Matrix = Linalg.Matrix
module Rng = Numerics.Rng

let checkb = Alcotest.(check bool)
let checkf msg ?(eps = 1e-9) expected actual =
  Alcotest.(check (float eps)) msg expected actual

let rng () = Rng.create ~seed:31 ()

let test_create_zero () =
  let m = Matrix.create ~rows:3 ~cols:2 in
  Alcotest.(check int) "rows" 3 (Matrix.rows m);
  Alcotest.(check int) "cols" 2 (Matrix.cols m);
  checkf "zero" 0. (Matrix.get m 2 1)

let test_init_get_set () =
  let m = Matrix.init ~rows:2 ~cols:2 (fun i j -> float_of_int ((10 * i) + j)) in
  checkf "init" 11. (Matrix.get m 1 1);
  Matrix.set m 0 1 42.;
  checkf "set" 42. (Matrix.get m 0 1)

let test_bounds_checked () =
  let m = Matrix.create ~rows:2 ~cols:2 in
  Alcotest.check_raises "get OOB" (Invalid_argument "Matrix.get: out of bounds") (fun () ->
      ignore (Matrix.get m 2 0));
  Alcotest.check_raises "set OOB" (Invalid_argument "Matrix.set: out of bounds") (fun () ->
      Matrix.set m 0 5 1.)

let test_mul_known () =
  let a = Matrix.init ~rows:2 ~cols:2 (fun i j -> float_of_int ((2 * i) + j + 1)) in
  (* a = [1 2; 3 4]; a² = [7 10; 15 22]. *)
  let sq = Matrix.mul a a in
  checkf "a²(0,0)" 7. (Matrix.get sq 0 0);
  checkf "a²(0,1)" 10. (Matrix.get sq 0 1);
  checkf "a²(1,0)" 15. (Matrix.get sq 1 0);
  checkf "a²(1,1)" 22. (Matrix.get sq 1 1)

let test_mul_dimension_mismatch () =
  let a = Matrix.create ~rows:2 ~cols:3 in
  let b = Matrix.create ~rows:2 ~cols:2 in
  Alcotest.check_raises "inner mismatch"
    (Invalid_argument "Matrix.mul: inner dimension mismatch") (fun () ->
      ignore (Matrix.mul a b))

let test_outer_known () =
  let m = Matrix.outer [| 1.; 2. |] [| 3.; 4.; 5. |] in
  checkf "outer(1,2)" 10. (Matrix.get m 1 2);
  Alcotest.(check int) "outer cols" 3 (Matrix.cols m)

let test_outer_equals_matmul () =
  (* aᵀ×b as a (n×1)·(1×n) product. *)
  let a = [| 1.; -2.; 3. |] and b = [| 4.; 0.; -1. |] in
  let col = Matrix.init ~rows:3 ~cols:1 (fun i _ -> a.(i)) in
  let row = Matrix.init ~rows:1 ~cols:3 (fun _ j -> b.(j)) in
  checkb "outer == col·row" true (Matrix.approx_equal (Matrix.outer a b) (Matrix.mul col row))

let test_frobenius () =
  let m = Matrix.init ~rows:1 ~cols:2 (fun _ j -> if j = 0 then 3. else 4. ) in
  checkf "3-4-5" 5. (Matrix.frobenius m)

let qcheck_mul_associative =
  QCheck.Test.make ~name:"matrix multiplication is associative" ~count:30
    QCheck.(int_range 1 12)
    (fun n ->
      let r = Rng.create ~seed:n () in
      let a = Matrix.random r ~rows:n ~cols:n in
      let b = Matrix.random r ~rows:n ~cols:n in
      let c = Matrix.random r ~rows:n ~cols:n in
      Matrix.approx_equal ~tol:1e-7
        (Matrix.mul (Matrix.mul a b) c)
        (Matrix.mul a (Matrix.mul b c)))

let suites =
  [
    ( "matrix",
      [
        Alcotest.test_case "create zero" `Quick test_create_zero;
        Alcotest.test_case "init/get/set" `Quick test_init_get_set;
        Alcotest.test_case "bounds checked" `Quick test_bounds_checked;
        Alcotest.test_case "known product" `Quick test_mul_known;
        Alcotest.test_case "dimension mismatch" `Quick test_mul_dimension_mismatch;
        Alcotest.test_case "outer known" `Quick test_outer_known;
        Alcotest.test_case "outer == matmul" `Quick test_outer_equals_matmul;
        Alcotest.test_case "frobenius" `Quick test_frobenius;
        QCheck_alcotest.to_alcotest qcheck_mul_associative;
      ] );
  ]
