(** The Homogeneous Blocks strategy of Section 4.1.1 — the
    MapReduce-style baseline.

    The [n × n] computational domain is cut into identical square blocks
    of side [D = √x₁·n] where [x₁] is the relative speed of the slowest
    worker, so that one block is exactly the slowest worker's fair
    share; the number of blocks is [1/x₁] (paper Section 4.1.1, all
    quantities treated as reals; we round the count to the nearest
    integer).  Blocks are handed out demand-driven: whenever a worker
    finishes a block it requests the next one.  Every block costs [2D]
    of input data regardless of overlap with data already sent, so the
    total communication is [#blocks · 2D].

    [Commhom/k] (Section 4.3) divides the block side by successive
    integers [k] — [k² / x₁] blocks of side [D/k] — until the load
    imbalance [e = (tmax - tmin)/tmin] drops below a threshold (1% in
    the paper). *)

type result = {
  k : int;  (** subdivision factor (1 for plain [Commhom]) *)
  blocks : int;
  block_side : float;  (** in data units *)
  owners : int array;  (** worker of each block, in hand-out order *)
  per_worker : int array;  (** number of blocks per worker *)
  finish_times : float array;  (** per-worker computation finish time *)
  communication : float;  (** [blocks · 2 · block_side] *)
  imbalance : float;  (** [e]; [infinity] when some worker got no block *)
  makespan : float;
}

val block_count : Platform.Star.t -> k:int -> int
(** [max 1 (round (k²/x₁))]. *)

val demand_driven : Platform.Star.t -> n:float -> k:int -> result
(** Simulate the demand-driven hand-out with subdivision [k].
    Requires [n > 0] and [k > 0]. *)

val commhom : Platform.Star.t -> n:float -> result
(** [demand_driven ~k:1]: the paper's block size. *)

val commhom_over_k :
  ?target_imbalance:float -> ?max_k:int -> Platform.Star.t -> n:float -> result
(** Increase [k] until [imbalance <= target_imbalance] (default 0.01,
    the paper's 1%) or [k = max_k] (default 128); returns the first
    result meeting the target, or the last one attempted. *)
