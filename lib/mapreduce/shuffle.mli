(** The shuffle/reduce phase: intermediate pairs are routed to reducers
    (hash placement, as in Hadoop), pairs produced on their reducer's
    own worker stay local, and each reducer folds its key groups. *)

type stats = {
  pairs : int;  (** intermediate pairs produced *)
  volume : float;  (** pairs shipped to a different worker *)
  per_reducer_volume : float array;
  per_reducer_work : float array;  (** values folded by each reducer *)
  reduce_time : float;  (** max over reducers of transfer + fold time *)
}

val placement : p:int -> 'k -> int
(** Deterministic hash placement of a key among [p] reducers. *)

val run :
  Platform.Star.t ->
  pairs:('k * 'v * int) list ->
  reduce:('k -> 'v list -> 'v) ->
  ('k * 'v) list * stats
(** [pairs] carries [(key, value, producing_worker)].  Values reach
    their reducer in production order.  Each pair weighs one data unit;
    each value costs one work unit to fold.  Keys go to reducers by
    {!placement}. *)
