(* sort_multicore: the paper's Section 3 sample sort on real cores,
   [Sortlib.Multicore.sort] over the shared [Exec.Pool]. *)

module Rng = Numerics.Rng

let n = 2_000_000
let p = 16
let domains = 2

type t = { keys : float array; checksum : int; splitter_seed : int }

(* Order-independent: a sorted permutation of the keys has the same
   checksum, any lost, duplicated or altered key changes it. *)
let checksum a =
  let acc = ref 0 in
  Array.iter
    (fun x ->
      let h = Int64.to_int (Int64.bits_of_float x) in
      let h = (h lxor (h lsr 29)) * 0x2545F4914F6CDD1D in
      acc := !acc + (h lxor (h lsr 32)))
    a;
  !acc

let is_sorted a =
  let ok = ref true in
  for i = 1 to Array.length a - 1 do
    if a.(i - 1) > a.(i) then ok := false
  done;
  !ok

(* Every call draws the same splitter sample, so every output is the
   same array. *)
let call t = Sortlib.Multicore.sort ~domains (Rng.create ~seed:t.splitter_seed ()) t.keys ~p

let correct ?(corrupt = false) t out =
  Array.length out = n && is_sorted out && checksum out = t.checksum + Bool.to_int corrupt

(* Input generation, the reference checksum, pool spawn and two
   warm-up calls (the first calls after start-up run ~1.7x slower). *)
let setup ~seed =
  let rng = Rng.create ~seed () in
  let keys = Array.init n (fun _ -> Rng.float rng) in
  let t = { keys; checksum = checksum keys; splitter_seed = seed + 1 } in
  Numerics.Parallel.warm_up ~domains ();
  for _ = 1 to 2 do
    if not (correct t (call t)) then failwith "sort_multicore: warm-up output is wrong"
  done;
  t
