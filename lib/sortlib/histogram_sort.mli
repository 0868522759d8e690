(** Histogram sort: the deterministic alternative to sample sort's
    randomized splitter selection, used as an ablation baseline.

    Splitters are refined by parallel bisection: each pass counts, in
    one sweep over the keys, how many fall below each probe value, and
    narrows each splitter's bracket until every bucket is within
    [tolerance] of the ideal [N/p].  Balance is as tight as requested
    (sample sort only promises the w.h.p. envelope) at the price of
    several passes over the data instead of one sample sort. *)

type result = {
  splitters : float array;  (** [p - 1] refined splitters *)
  bucket_sizes : int array;
  passes : int;  (** refinement sweeps over the data *)
}

val splitters :
  ?tolerance:float -> ?max_passes:int -> float array -> p:int -> result
(** [tolerance] (default 0.02) bounds the relative deviation of every
    bucket from [N/p]; [max_passes] defaults to 64.  Requires a
    non-empty array and [p >= 1]. *)

val sort : ?tolerance:float -> float array -> p:int -> float array
(** Full pipeline: refine splitters, bucket, sort buckets, concatenate. *)
