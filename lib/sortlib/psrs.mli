(** Parallel Sorting by Regular Sampling (Shi & Schaeffer) — the third
    classical splitter-selection scheme, next to random oversampling
    (sample sort, §3) and histogramming.

    Each of the [p] workers sorts its local chunk and contributes [p]
    regularly spaced samples; the [p²] samples are sorted and the
    [p - 1] regular splitters taken from them.  Deterministic, one
    local-sort pass, with the classical worst-case guarantee that no
    bucket exceeds [2·N/p] elements (for distinct keys). *)

type result = {
  splitters : float array;
  bucket_sizes : int array;
  sorted : float array;  (** the fully sorted output *)
}

val sort : float array -> p:int -> result
(** Requires [p >= 1]; with fewer than [p] keys the degenerate buckets
    are empty but the output is still sorted. *)
