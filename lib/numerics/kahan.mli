(** Compensated (Kahan-Babuška) summation.

    Communication-volume accounting sums millions of small block
    contributions; compensated summation keeps the totals exact enough
    that ratio comparisons against closed-form bounds are meaningful. *)

type t
(** A running compensated sum. *)

val create : unit -> t
val add : t -> float -> unit
val total : t -> float

val sum : float array -> float
(** One-shot compensated sum of an array. *)

val sum_by : ('a -> float) -> 'a array -> float
(** [sum_by f a] is the compensated sum of [f a.(i)]. *)
