(** Counting-based scatter/partition kernels (paper §3, phase 2).

    The sample-sort family routes every key to a bucket chosen by a
    branchless search among [p - 1] splitters: exactly [⌈log₂ p⌉]
    comparisons per key per pass, in the [<] order.  The kernels lay the
    splitters out once per call as an implicit (Eytzinger) search tree
    and descend it with four keys at a time, so the four dependent
    load/compare chains overlap instead of running one after another
    (Sanders and Winkel's super scalar sample sort); the result is the
    same as {!bucket_index_floats} on every key, including NaN and the
    infinities.  Each classification pass adds [⌈log₂ p⌉ · n] to the
    [scatter.comparisons] counter of {!Obs.Metrics}, once per call.  The original
    implementation built a cons cell per key and re-concatenated ([O(n)]
    short-lived allocations); these kernels do it in two passes —
    bucket-index histogram, exclusive prefix sum, scatter into one
    preallocated array — with [O(p)] auxiliary allocation beyond the
    output array itself.

    The scatter is {e stable}: within each bucket, keys keep their input
    order.  Stability is what makes the pool-parallel variant
    byte-identical to the sequential kernel at any domain count: slice
    [s]'s keys for bucket [b] always land before slice [s + 1]'s, so the
    output is independent of how slices are scheduled.

    Keys are [float]s, the only key type the sort pipelines route.  The
    kernels are monomorphic because generic access to an unboxed
    [float array] boxes every element it reads, which would put the
    [O(n)] allocation right back. *)

type t = {
  data : float array;
      (** All keys, bucket-contiguous and stable within each bucket. *)
  offsets : int array;
      (** [p + 1] entries; bucket [b] is [data.(offsets.(b)) ..
          data.(offsets.(b + 1) - 1)], a zero-copy view. *)
}

type slice = { mutable lo : int; mutable len : int }
(** Stack-like slice geometry: one record allocated up front and
    overwritten per query, so walking every bucket of every pass costs
    zero allocation (the tuple-returning predecessor allocated a block
    per call).  Not for sharing across domains — give each worker its
    own, or read {!bucket_lo}/{!bucket_len} directly. *)

val slice_make : unit -> slice
(** A fresh slice record ([lo = 0], [len = 0]). *)

val num_buckets : t -> int
(** [Array.length offsets - 1]. *)

val bucket_lo : t -> int -> int
(** Offset of bucket [b] inside [t.data] — an unallocated int read. *)

val bucket_len : t -> int -> int
(** Length of bucket [b] — an unallocated int read. *)

val bucket_slice : t -> int -> slice -> unit
(** [bucket_slice t b s] overwrites [s] with bucket [b]'s geometry. *)

val bucket_sizes : t -> int array
(** Length of every bucket (fresh [O(p)] array). *)

val bucket_index_floats : float array -> float -> int
(** [bucket_index_floats splitters key]: smallest [i] with
    [key < splitters.(i)], or [Array.length splitters] when none.  The
    single-key search, a branchless bisection over the splitters as
    stored, costs exactly [⌈log₂ p⌉] comparisons for
    [p = Array.length splitters + 1] — phase 2's [N log p] master cost,
    exact rather than modelled.  Splitters must be sorted; duplicates
    and infinities are fine.  The order is [<], not [Float.compare]: a
    NaN key compares false against every splitter and goes to the last
    bucket. *)

val histogram_floats : float array -> splitters:float array -> int array
(** Bucket sizes in one counting pass down the splitter tree — no
    scatter, [O(p)] allocation. *)

val histogram_floats_into : int array -> float array -> splitters:float array -> unit
(** {!histogram_floats} into a caller-owned [counts] buffer of at least
    [|splitters| + 1] entries (zeroed first; entries past [p] are left
    alone) — the refinement loops of histogram sort reuse one buffer
    across every pass instead of allocating per sweep. *)

val partition_floats : float array -> splitters:float array -> t
(** Two-pass sequential scatter: a histogram pass, then a scatter pass,
    each classifying every key down the splitter tree, so exactly
    [2 ⌈log₂ p⌉] comparisons per key.  Beyond the output [data] array
    (not zero-filled: every slot is written once), it allocates two
    [p + 1] int arrays and the [2^⌈log₂ p⌉ - 1]-float tree — nothing per
    key.  Storing each key's bucket id in pass 1 would save pass 2's
    search, but only at the price of an [n]-byte buffer, so it is not
    done. *)

val partition_floats_pool :
  ?workers:int -> Exec.Pool.t -> float array -> splitters:float array -> t
(** Pool-parallel scatter: per-slice local histograms over disjoint
    slices, merged prefix, parallel scatter into disjoint regions.  The
    slice geometry depends only on [Array.length keys], and the scatter
    is stable, so the result is byte-identical to {!partition_floats} at
    any pool size (including a torn-down pool).  Same tree, built once
    and shared read-only by the slices, same [2 ⌈log₂ p⌉] comparisons
    per key.  Auxiliary allocation is [O(slices · p)] ints. *)
