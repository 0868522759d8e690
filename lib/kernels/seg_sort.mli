(** In-place sorting of a float array segment.

    The sample-sort family sorts each bucket of the scattered flat array
    ({!Scatter.t}) in place; [Array.sort] only takes whole arrays, so the
    old code paid an [Array.sub] / sort / blit round-trip (or a fresh
    array per bucket) per segment.  This routine sorts [data.(lo) ..
    data.(lo + len - 1)] directly: an MSD radix sort (American-flag
    sort) on each key's order-preserving 64-bit image.  A level skips
    the bits on which the whole segment agrees, counts the next 8-bit
    digit and cycles the keys in place into its 256 sub-buckets;
    segments of at most 48 keys go to an insertion sort on the same
    images.  Each level consumes at least 8 bits, so whatever the input
    a key goes through at most 8 levels (three linear scans each: the
    common bits, the counts, the permutation) and one insertion leaf:
    at most 9 stages, O(len) in all.

    The result is the unique sequence of the segment's keys in that
    order (bit patterns, not just values, are determined); elements
    outside the segment are untouched.  A call allocates nothing: the
    per-level counts live in a workspace each domain allocates once, on
    its first call. *)

val sort_floats : float array -> lo:int -> len:int -> unit
(** [sort_floats data ~lo ~len] sorts the segment in the total order
    −NaN < −∞ < … < −0 < +0 < … < +∞ < +NaN, where NaNs of one sign are
    ordered by their payload bits: the order of
    [Int64.bits_of_float] with every bit flipped on negative keys and
    the sign bit flipped on the others, compared unsigned.  On NaN-free
    keys it agrees with [<], and puts [-0.] before [0.].  Raises
    [Invalid_argument] when the segment does not lie inside [data]. *)
