(** Ready-made MapReduce jobs.

    [outer_product] and [matmul_replicated] are the non-linear workloads
    of Section 4, expressed with the data replication the paper
    describes (the [N² → N³] blow-up for matrix multiplication). *)

val outer_product :
  a:float array -> b:float array -> chunk:int -> (int * int, float) Engine.job
(** Square blocks of side [chunk] over the [n × n] outer-product domain
    ([chunk] must divide [n = |a| = |b|]); a task reads one chunk of [a]
    and one of [b] (identified blocks, so affinity scheduling can reuse
    them) and emits one pair per cell. *)

val matmul_replicated :
  a:(int -> int -> float) ->
  b:(int -> int -> float) ->
  n:int -> chunk:int ->
  (int * int, float) Engine.job
(** The replicated-data matrix product: one task per block triple
    [(i-block, j-block, k-block)], reading one block of [A] and one of
    [B] and emitting partial sums keyed by [(i, j)]; the reducer adds
    the [n/chunk] partials.  Total map input is [2n³/chunk] data units
    for matrices of size [2n²] — the replication factor of Section 2. *)

val replication_factor : n:int -> chunk:int -> float
(** [(2n³/chunk) / (2n²) = n/chunk]. *)
