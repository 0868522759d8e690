(** K-way merge of sorted runs with a binary heap — the linear-ithmic
    building block of PSRS's bucket-merging phase ([O(N log k)] instead
    of re-sorting, [O(N log N)]). *)

type merger
(** Reusable k-way merge state (heap + cursors, [O(k)] ints and floats),
    allocated once by {!merger} so {!k_way_strided} allocates nothing. *)

val merger : k:int -> merger
(** State for merges of up to [k] runs. *)

val k_way_strided :
  merger ->
  src:float array ->
  bounds:int array ->
  runs:int ->
  stride:int ->
  off:int ->
  dst:float array ->
  dst_lo:int ->
  int
(** [k_way_strided mg ~src ~bounds ~runs ~stride ~off ~dst ~dst_lo]
    merges [runs] sorted slices of [src] into [dst] starting at
    [dst_lo], returning the merged length.  Run [r] is
    [src.(bounds.((r·stride) + off)) ..
    src.(bounds.((r·stride) + off + 1) - 1)] — the flat row-per-run
    boundary layout PSRS produces (row [r] holds the offsets-convention
    bucket boundaries of chunk [r], so [off = b] selects bucket [b] of
    every chunk).  Runs must each be sorted ascending and [dst] must not
    alias [src].  Beyond the reusable [mg], no allocation. *)
