type model = {
  p : int;
  c : int;
  n : int;
  per_processor : float;
  total : float;
  replication : float;
  memory_factor : float;
}

let is_perfect_square k =
  let r = int_of_float (Float.round (sqrt (float_of_int k))) in
  r * r = k

let validate ~p ~c =
  if p <= 0 then invalid_arg "C25d: p must be positive";
  if c < 1 then invalid_arg "C25d: c must be >= 1";
  if float_of_int c > (float_of_int p ** (1. /. 3.)) +. 1e-9 then
    invalid_arg "C25d: c must not exceed p^(1/3)";
  if p mod c <> 0 || not (is_perfect_square (p / c)) then
    invalid_arg "C25d: p/c must be a perfect square"

let evaluate ~p ~c ~n =
  validate ~p ~c;
  let nf = float_of_int n in
  let pf = float_of_int p and cf = float_of_int c in
  (* Solomonik-Demmel bandwidth cost: 2n²/√(cp) words per processor for
     the multiplication phase. *)
  let per_processor = 2. *. nf *. nf /. sqrt (cf *. pf) in
  (* Replicating both inputs across the c layers moves (c-1)·2n²/c
     additional words in total. *)
  let replication = (cf -. 1.) *. 2. *. nf *. nf /. cf in
  {
    p;
    c;
    n;
    per_processor;
    total = (pf *. per_processor) +. replication;
    replication;
    memory_factor = cf;
  }

let speedup_over_2d ~p ~c ~n =
  validate ~p ~c;
  ignore n;
  (* per-processor volumes are 2n²/√p and 2n²/√(cp): the ratio is √c. *)
  sqrt (float_of_int c)
