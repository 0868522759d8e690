(** Database scan — the "database searching" DLT application of §1.1
    (refs [14, 15]): a predicate evaluated over a large table is
    perfectly divisible (cost ∝ records scanned, no dependencies).

    Records are synthetic rows; queries are predicates plus an
    aggregation.  The distributed scan uses the one-port linear DLT
    schedule and verifies its result against the sequential scan. *)

type record = { key : int; group : int; value : float }

val generate : Numerics.Rng.t -> rows:int -> groups:int -> record array
(** Random table: uniform keys, [group] in [\[0, groups)], value in
    [\[0, 1)]. *)

type query = {
  name : string;
  predicate : record -> bool;
  weight : record -> float;  (** contribution of a matching record *)
}

val sum_where : name:string -> (record -> bool) -> (record -> float) -> query

val scan : query -> record array -> float
(** Sequential reference. *)

type execution = {
  shares : int array;  (** records per worker *)
  answer : float;
  makespan : float;  (** one-port model: staggered transfer + scan *)
  speedup : float;  (** vs the slowest worker scanning alone *)
}

val distributed_scan : Platform.Star.t -> query -> record array -> execution
(** One-port linear DLT split of the table (1 record = 1 data unit = 1
    work unit), executed for real. *)
