(* Dense row-major matrices on a flat Bigarray buffer (Kernels.Fbuf).

   The payload lives outside the OCaml heap: creating a result matrix
   costs the GC a custom-block header instead of [rows * cols]
   major-heap words, so the matmul/outer-product kernels allocate O(1)
   GC words per call.  [data] exposes the backing buffer for the audited
   unsafe zones (Matmul, Outer_product, Summa) that validate their index
   ranges once up front. *)

[@@@nldl.unsafe_zone
  "the init/mul/outer loops and the reductions run over dimensions validated \
   at entry (equal shapes, inner-dimension match), so the unchecked Fbuf \
   accesses stay inside the row-major stores (U-audit 2026-08)"]

module Fbuf = Kernels.Fbuf

type t = { rows : int; cols : int; data : Fbuf.t }

let create ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Matrix.create: non-positive dimensions";
  { rows; cols; data = Fbuf.create (rows * cols) }

(* The flat stores below hold exactly rows*cols floats by construction
   ([create] / local [Fbuf.create]), and every [i*cols + j] offset stays
   under that product because i/j are loop-bounded by the same dims. *)
let[@nldl.bounds_validated "Matrix.create"] init ~rows ~cols f =
  let m = create ~rows ~cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      Fbuf.unsafe_set m.data ((i * cols) + j) (f i j)
    done
  done;
  m

let random rng ~rows ~cols =
  init ~rows ~cols (fun _ _ -> Numerics.Rng.uniform rng (-1.) 1.)

let rows m = m.rows
let cols m = m.cols

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then invalid_arg "Matrix.get: out of bounds";
  Fbuf.unsafe_get m.data ((i * m.cols) + j)

let set m i j v =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then invalid_arg "Matrix.set: out of bounds";
  Fbuf.unsafe_set m.data ((i * m.cols) + j) v

let data m = m.data

let[@nldl.bounds_validated "Matrix.create"] mul a b =
  if a.cols <> b.rows then invalid_arg "Matrix.mul: inner dimension mismatch";
  let c = create ~rows:a.rows ~cols:b.cols in
  let ad = a.data and bd = b.data and cd = c.data in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = Fbuf.unsafe_get ad ((i * a.cols) + k) in
      if (aik <> 0.) [@nldl.allow "H302"] (* exact sparse skip *) then
        for j = 0 to b.cols - 1 do
          Fbuf.unsafe_set cd ((i * c.cols) + j)
            (Fbuf.unsafe_get cd ((i * c.cols) + j) +. (aik *. Fbuf.unsafe_get bd ((k * b.cols) + j)))
        done
    done
  done;
  c

let[@nldl.bounds_validated "Fbuf.create"] outer a b =
  let rows = Array.length a and cols = Array.length b in
  if rows = 0 || cols = 0 then invalid_arg "Matrix.outer: empty vector";
  let data = Fbuf.create (rows * cols) in
  for i = 0 to rows - 1 do
    let ai = Array.unsafe_get a i in
    let base = i * cols in
    for j = 0 to cols - 1 do
      Fbuf.unsafe_set data (base + j) (ai *. Array.unsafe_get b j)
    done
  done;
  { rows; cols; data }

let frobenius m =
  let acc = Numerics.Kahan.create () in
  let d = m.data in
  for i = 0 to Fbuf.length d - 1 do
    let x = Fbuf.unsafe_get d i in
    Numerics.Kahan.add acc (x *. x)
  done;
  sqrt (Numerics.Kahan.total acc)

let max_abs_diff a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg "Matrix.max_abs_diff: dimension mismatch";
  let ad = a.data and bd = b.data in
  let worst = ref 0. in
  for i = 0 to Fbuf.length ad - 1 do
    let d = Float.abs (Fbuf.unsafe_get ad i -. Fbuf.unsafe_get bd i) in
    if d > !worst then worst := d
  done;
  !worst

let approx_equal ?(tol = 1e-9) a b =
  let magnitude = Float.max (frobenius a) (frobenius b) in
  max_abs_diff a b <= tol *. (1. +. magnitude)
