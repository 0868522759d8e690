(** Sample sort executed on real cores (OCaml 5 domains): the Section 3
    pipeline with phase 3's local sorts — the divisible part — actually
    running in parallel.  The speedup measured by the benchmark harness
    is the practical counterpart of the paper's claim that sorting is
    almost divisible. *)

val sort :
  ?domains:int -> ?s:int -> Numerics.Rng.t -> float array -> p:int -> float array
(** The full pipeline of {!Sample_sort} (phases 1-3); returns a sorted
    copy.  [s] defaults to {!Sample_sort.default_oversampling}; requires
    [p >= 1].  The scatter and the per-bucket sorts are dispatched over
    [domains] (default [Domain.recommended_domain_count]); [~domains:1]
    runs every phase sequentially.  Deterministic: the domain count
    affects timing only, never the output.  Every [p], [1] included,
    sorts with {!Kernels.Seg_sort.sort_floats}, so on NaN-free keys the
    output is bit-identical at any [p] and domain count ([-0.] before
    [0.]). *)

val speedup :
  ?domains:int -> ?trials:int -> Numerics.Rng.t -> n:int -> p:int -> float * float * float
(** Measure [(sequential seconds, parallel seconds, speedup)] on a
    fresh random array of size [n] — used by the bench harness.  Times
    come from the monotonic clock; the shared domain pool is warmed up
    and one untimed run of each variant precedes measurement, then
    [trials] (default 3, at least 1) sequential/parallel pairs are timed
    {e interleaved} and the median of each side is reported — so neither
    variant is systematically charged cold caches or load drift. *)
