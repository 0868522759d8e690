(** Randomized sample sort (Frazer-McKellar / Blelloch et al.), the
    preprocessing that turns sorting into an (almost) divisible load
    (paper Section 3, Figure 1).

    The three phases:
    + pick [s·p] random keys, sort them, keep every [s]-th as a splitter
      ([p - 1] splitters);
    + route every key to its bucket by binary search among the
      splitters ({!Kernels.Scatter});
    + sort each bucket independently (one bucket per worker,
      {!Kernels.Seg_sort}).

    With oversampling ratio [s = log² N], the largest bucket is
    [(N/p)(1 + (1/log N)^(1/3))] with probability [1 - O(N^(-1/3))], so
    phase 3 — the only parallel phase — carries asymptotically all the
    [N log N] work.  This module owns phase 1 and the concentration
    statistics; {!Multicore.sort} runs the whole pipeline. *)

val default_oversampling : n:int -> int
(** The paper's [s = (log₂ n)²], at least 1. *)

val choose_splitters_floats : Numerics.Rng.t -> float array -> p:int -> s:int -> float array
(** Phase 1 on equal-speed buckets: sample [s·p] keys uniformly with
    replacement, sort the sample, return the keys of sample ranks
    [s, 2s, …, (p-1)s].  The sample fill and sort never box a key, so
    phase 1 allocates [O(s·p)] words.  Requires [p >= 1], [s >= 1] and a
    non-empty input. *)

val weighted_splitters_floats :
  Numerics.Rng.t -> float array -> weights:float array -> s:int -> float array
(** Heterogeneous variant (Section 3.2): bucket [i] should receive a
    fraction [weights.(i)] of the keys (weights need not be normalized),
    so splitter [i] is the sample key of rank
    [round(cum_i · sample_size)]. *)

val max_bucket_ratio : int array -> float
(** [MaxSize / (N/p)] over bucket sizes: the concentration statistic of
    Theorem B.4.  [0.] when every bucket is empty. *)

val theoretical_envelope : n:int -> float
(** [1 + (1/ln n)^(1/3)], the w.h.p. bound on {!max_bucket_ratio} for
    [s = log² n]. *)
