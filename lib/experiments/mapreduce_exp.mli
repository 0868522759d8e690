(** Ablation of the paper's concluding proposal: adding data-affinity
    awareness to the demand-driven MapReduce scheduler ("favoring among
    all available tasks those that share blocks with data already stored
    on a slave processor").

    Runs the outer-product job under plain FIFO demand-driven scheduling
    and under affinity-aware scheduling, on the same platforms, and
    reports the map-phase communication of each against the zone-based
    heterogeneous partitioning. *)

type row = {
  p : int;
  profile : string;
  fifo_comm : float;
  affinity_comm : float;
  zone_comm : float;  (** Heterogeneous Blocks (one zone per worker) *)
  fifo_makespan : float;
  affinity_makespan : float;
}

val run :
  ?n:int ->
  ?chunk:int ->
  ?processor_counts:int list ->
  ?trials:int ->
  ?seed:int ->
  ?domains:int ->
  unit ->
  row list
(** Trials run on the shared domain pool with pre-split per-trial RNGs;
    output is identical at any [domains]. *)

val table : row list -> Report.t
