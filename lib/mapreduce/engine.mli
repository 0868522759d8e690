(** The end-to-end MapReduce engine: demand-driven map phase
    ({!Scheduler}), hash shuffle and reduce ({!Shuffle}), with functional
    execution of the user's map and reduce so that job outputs can be
    verified against sequential references. *)

type ('k, 'v) job = {
  tasks : Task.t array;  (** [tasks.(i).id] must equal [i] *)
  execute : int -> ('k * 'v) list;  (** the map function of task [i] *)
  block_size : int -> float;  (** size of each input block id *)
}

type ('k, 'v) result = {
  output : ('k * 'v) list;  (** reduced output, unordered *)
  map : Scheduler.outcome;
  shuffle : Shuffle.stats;
  makespan : float;  (** map makespan + shuffle/reduce time *)
}

val run :
  ?config:Scheduler.config ->
  Platform.Star.t ->
  ('k, 'v) job ->
  reduce:('k -> 'v list -> 'v) ->
  ('k, 'v) result
(** Raises [Invalid_argument] when task ids are not [0..n-1] in order. *)
