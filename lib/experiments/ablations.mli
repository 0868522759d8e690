(** Ablation studies of the design choices DESIGN.md calls out:

    - PERI-SUM column DP vs. recursive bisection vs. the lower bound;
    - SUMMA panel width: words constant, messages dropping;
    - 2.5D replication: bandwidth saved per extra memory;
    - sample sort vs. histogram sort splitter quality;
    - speculative re-execution under straggler jitter;
    - dispatch order sensitivity of affine one-port DLT. *)

type partitioner_row = {
  p : int;
  profile : string;
  dp_ratio : float;  (** column-DP cost / lower bound *)
  bisection_ratio : float;
}

type summa_row = { panel : int; words : int; messages : int }

type c25d_row = {
  p : int;
  c : int;
  per_processor : float;
  total : float;
  speedup : float;
}

type splitter_row = {
  n : int;
  p : int;
  sample_ratio : float;  (** max-bucket/ideal, sample sort *)
  histogram_ratio : float;
  histogram_passes : int;
  psrs_ratio : float;  (** regular sampling (PSRS) *)
}

type speculation_row = {
  sigma : float;
  plain_makespan : float;  (** mean over seeds *)
  speculative_makespan : float;
  duplicates : float;  (** mean speculative copies *)
}

type ordering_row = {
  p : int;
  spread : float;  (** worst/best - 1 over all dispatch orders *)
  latency_scale : float;
}

type matmul_row = {
  algorithm : string;
  n : int;
  p : int;
  words : int;
  messages : int;
  correct : bool;  (** result checked against [Matrix.mul] *)
}

val partitioners :
  ?processor_counts:int list -> ?trials:int -> ?seed:int -> unit -> partitioner_row list

val summa_panels : ?n:int -> ?panels:int list -> unit -> summa_row list
val c25d : ?n:int -> ?ps:int list -> unit -> c25d_row list

val splitters :
  ?n:int -> ?processor_counts:int list -> ?seed:int -> unit -> splitter_row list

val speculation :
  ?sigmas:float list -> ?trials:int -> ?tasks:int -> ?p:int -> unit -> speculation_row list
(** Trial [t] (counted from 1) jitters with seed [1000 + t]. *)

val ordering :
  ?p:int -> ?latency_scales:float list -> ?seed:int -> unit -> ordering_row list

val matmul_algorithms : ?n:int -> ?grid:int -> unit -> matmul_row list
(** Rank-1 zones, SUMMA (two panel widths) and Cannon on the same
    [grid × grid] platform: words, messages and a correctness check. *)

type topology_row = {
  uplink : float;  (** cluster uplink bandwidth *)
  loss : float;  (** aggregation loss: stranded compute fraction *)
  tree_vs_flat : float;  (** tree makespan / flat-summary makespan *)
}

val topology : ?uplinks:float list -> ?total:float -> unit -> topology_row list
(** Two 8-worker clusters plus two direct workers; sweeps the cluster
    uplinks to show when hierarchy starts to bite. *)

val partitioners_table : partitioner_row list -> Report.t
val summa_table : summa_row list -> Report.t
val c25d_table : c25d_row list -> Report.t
val splitters_table : splitter_row list -> Report.t
val speculation_table : speculation_row list -> Report.t
val ordering_table : ordering_row list -> Report.t
val matmul_table : matmul_row list -> Report.t
val topology_table : topology_row list -> Report.t

val all : unit -> Report.t list
(** Every ablation with default parameters, one table each. *)
