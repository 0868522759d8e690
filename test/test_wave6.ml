(* Blocked Cholesky factorization. *)

module Cholesky = Linalg.Cholesky
module Matrix = Linalg.Matrix
module Rng = Numerics.Rng

let checkb = Alcotest.(check bool)
let checkf msg ?(eps = 1e-9) expected actual =
  Alcotest.(check (float eps)) msg expected actual

(* A·Aᵀ + n·I is symmetric positive definite. *)
let spd rng n =
  let a = Matrix.random rng ~rows:n ~cols:n in
  Matrix.add (Matrix.mul a (Matrix.transpose a)) (Matrix.scale (float_of_int n) (Matrix.identity n))

let test_cholesky_reconstruct () =
  let rng = Rng.create ~seed:171 () in
  let a = spd rng 20 in
  let l = Cholesky.factorize ~block:4 a in
  checkb "L Lt = A" true (Matrix.approx_equal ~tol:1e-8 (Cholesky.reconstruct l) a)

let test_cholesky_lower_triangular () =
  let rng = Rng.create ~seed:172 () in
  let a = spd rng 9 in
  let l = Cholesky.factorize a in
  for i = 0 to 8 do
    for j = i + 1 to 8 do
      checkf "upper is zero" 0. (Matrix.get l i j)
    done
  done

let test_cholesky_blocks_agree () =
  let rng = Rng.create ~seed:173 () in
  let a = spd rng 13 in
  let reference = Cholesky.factorize ~block:1 a in
  List.iter
    (fun block ->
      checkb
        (Printf.sprintf "block %d" block)
        true
        (Matrix.approx_equal ~tol:1e-8 (Cholesky.factorize ~block a) reference))
    [ 3; 13; 50 ]

let test_cholesky_solve () =
  let rng = Rng.create ~seed:174 () in
  let n = 12 in
  let a = spd rng n in
  let x_true = Array.init n (fun i -> float_of_int i -. 3.) in
  let rhs =
    Array.init n (fun i ->
        let acc = ref 0. in
        for j = 0 to n - 1 do
          acc := !acc +. (Matrix.get a i j *. x_true.(j))
        done;
        !acc)
  in
  let x = Cholesky.solve (Cholesky.factorize a) rhs in
  Array.iteri (fun i v -> checkf "solution" ~eps:1e-7 x_true.(i) v) x

let test_cholesky_log_det () =
  (* det(c·I) = c^n. *)
  let n = 5 and c = 4. in
  let l = Cholesky.factorize (Matrix.scale c (Matrix.identity n)) in
  checkf "log det" ~eps:1e-9 (float_of_int n *. log c) (Cholesky.log_determinant l)

let test_cholesky_rejects_indefinite () =
  let bad = Matrix.scale (-1.) (Matrix.identity 3) in
  checkb "indefinite rejected" true
    (try
       ignore (Cholesky.factorize bad);
       false
     with Failure _ -> true)

let test_cholesky_agrees_with_lu () =
  let rng = Rng.create ~seed:175 () in
  let a = spd rng 10 in
  let chol = Cholesky.log_determinant (Cholesky.factorize a) in
  let lu = Linalg.Lu.determinant (Linalg.Lu.factorize a) in
  checkf "log det agrees with LU" ~eps:1e-6 chol (log lu)

let qcheck_cholesky =
  QCheck.Test.make ~name:"cholesky reconstructs random SPD matrices" ~count:30
    QCheck.(int_range 1 20)
    (fun n ->
      let rng = Rng.create ~seed:n () in
      let a = spd rng n in
      Matrix.approx_equal ~tol:1e-7 (Cholesky.reconstruct (Cholesky.factorize ~block:4 a)) a)

let suites =
  [
    ( "cholesky",
      [
        Alcotest.test_case "reconstruct" `Quick test_cholesky_reconstruct;
        Alcotest.test_case "lower triangular" `Quick test_cholesky_lower_triangular;
        Alcotest.test_case "blocks agree" `Quick test_cholesky_blocks_agree;
        Alcotest.test_case "solve" `Quick test_cholesky_solve;
        Alcotest.test_case "log det" `Quick test_cholesky_log_det;
        Alcotest.test_case "indefinite rejected" `Quick test_cholesky_rejects_indefinite;
        Alcotest.test_case "agrees with LU" `Quick test_cholesky_agrees_with_lu;
        QCheck_alcotest.to_alcotest qcheck_cholesky;
      ] );
  ]
