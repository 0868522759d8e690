(** In-place sorting of a float array segment.

    The sample-sort family sorts each bucket of the scattered flat array
    ({!Scatter.t}) in place; [Array.sort] only takes whole arrays, so the
    old code paid an [Array.sub] / sort / blit round-trip (or a fresh
    array per bucket) per segment.  This routine sorts [data.(lo) ..
    data.(lo + len - 1)] directly with zero heap allocation: introsort —
    median-of-three quicksort, insertion sort below 16 elements, heapsort
    past a [2 log₂ len] depth bound, so adversarial inputs stay
    [O(len log len)].

    The result is the unique sorted sequence of the segment's multiset
    (the sort is not stable, like [Array.sort]); elements outside the
    segment are untouched. *)

val sort_floats : float array -> lo:int -> len:int -> unit
(** [sort_floats data ~lo ~len] sorts the segment by [<] on unboxed
    floats — no closure call and no boxing per comparison.  NaNs are
    treated as equal to everything (the routine still terminates, but
    their position is unspecified); the random-key workloads never
    contain them.  Raises [Invalid_argument] when the segment does not
    lie inside [data]. *)
