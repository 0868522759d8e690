(* The [n = 0.] / [a = 1.] tests below are exact boundary-case guards
   (0 ** alpha and the alpha = 1 degenerate model), not tolerance
   comparisons. *)
[@@@nldl.allow "H302"]

type t = Linear | Power of float | N_log_n

let log2 x = log x /. log 2.

let work t n =
  assert (n >= 0.);
  match t with
  | Linear -> n
  | Power alpha -> if n = 0. then 0. else n ** alpha
  | N_log_n -> if n <= 1. then 0. else n *. log2 n

let work_derivative t n =
  match t with
  | Linear -> 1.
  | Power alpha -> if n = 0. then 0. else alpha *. (n ** (alpha -. 1.))
  | N_log_n -> if n <= 1. then 0. else log2 n +. (1. /. log 2.)

let is_linear = function Linear -> true | Power _ | N_log_n -> false

let alpha = function
  | Linear -> Some 1.
  | Power a -> Some a
  | N_log_n -> None

let of_alpha a =
  if a < 1. then invalid_arg "Cost_model.of_alpha: alpha must be >= 1";
  if a = 1. then Linear else Power a
