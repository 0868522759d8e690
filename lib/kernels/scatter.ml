(* Counting-based scatter kernels: bucket-index histogram, exclusive
   prefix sum, stable scatter into one preallocated array.  See the .mli
   for the determinism contract.  Every kernel is monomorphic on
   [float array]: generic access to an unboxed float array boxes every
   read, which would reintroduce the O(n) allocation this layer
   removes. *)

[@@@nldl.unsafe_zone
  "the branchless splitter search probes only [base + half - 1] in \
   [0, |splitters| - 1], because its answer always lies in [base, base + len - 1] \
   inside [0, |splitters|]; the tree descent probes only slot [j - 1] with [j] in \
   [1, 2^levels - 1] of a [2^levels - 1]-slot tree, and clamps every leaf into \
   [0, |splitters|]; scatter writes land inside the preallocated [data] \
   because cursors come from histogram + exclusive prefix sums over the same \
   keys (U-audit 2026-08)"]

type t = { data : float array; offsets : int array }
type slice = { mutable lo : int; mutable len : int }

let slice_make () = { lo = 0; len = 0 }
let num_buckets t = Array.length t.offsets - 1
let bucket_lo t b = t.offsets.(b)
let bucket_len t b = t.offsets.(b + 1) - t.offsets.(b)

let bucket_slice t b s =
  s.lo <- t.offsets.(b);
  s.len <- t.offsets.(b + 1) - s.lo

let bucket_sizes t = Array.init (num_buckets t) (fun b -> bucket_len t b)

(* The single-key search, for callers that route one key at a time:
   smallest i < m with key < splitters.(i), m when none.  A branchless
   upper bound, since a branchy bisection mispredicts about half its
   branches on random keys: the answer always lies in [base, base + len
   - 1], so every probe index is in [0, m - 1], and each key costs
   exactly ceil(log2 (m + 1)) comparisons whose outcome feeds an add,
   never a jump.  The kernels below classify whole arrays with the
   batched tree descent instead. *)
let[@nldl.bounds_validated "Scatter.bucket_index_floats"] bucket_index_floats
    (splitters : float array) (key : float) =
  let m = Array.length splitters in
  let base = ref 0 and len = ref (m + 1) in
  while !len > 1 do
    let half = !len lsr 1 in
    base :=
      !base + (half * Bool.to_int (not (key < Array.unsafe_get splitters (!base + half - 1))));
    len := !len - half
  done;
  !base

(* The batched classifier.  The m splitters are laid out once per call
   as an implicit (Eytzinger) search tree: 1-based node [j] sits in
   slot [j - 1], its children are [2j] and [2j + 1], and the in-order
   walk of the [2^levels - 1] slots is the sorted splitters followed by
   +infinity padding.  A key descends with [j <- 2j + [not (key <
   t.(j - 1))]]: [levels = ceil(log2 (m + 1))] steps, so [j] stays in
   [1, 2^levels - 1] until the last one and leaves it in [2^levels,
   2^(levels + 1) - 1]; [j - 2^levels] is then the number of slots
   the key is not below, which is the smallest [i] with [key <
   splitters.(i)] for every key except NaN and +infinity, which pass the
   padding too and are clamped to [m] (the last bucket, as in
   [bucket_index_floats]). *)
let levels_of m =
  let levels = ref 0 in
  while 1 lsl !levels < m + 1 do
    incr levels
  done;
  !levels

let splitter_tree (splitters : float array) ~levels =
  let m = Array.length splitters in
  let tree = Array.make ((1 lsl levels) - 1) Float.infinity in
  for depth = 0 to levels - 1 do
    (* Node [first + k] is the root of the k-th subtree at [depth],
       which spans in-order ranks [k * span, (k + 1) * span - 2]. *)
    let first = 1 lsl depth and span = 1 lsl (levels - depth) in
    for k = 0 to first - 1 do
      let rank = (k * span) + (span / 2) - 1 in
      if rank < m then tree.(first + k - 1) <- splitters.(rank)
    done
  done;
  tree

let m_comparisons = Obs.Metrics.counter "scatter.comparisons"

(* The bucket of a key whose descent left the tree at [j], in
   [2^levels, 2^(levels + 1) - 1]: clamped to [m] for NaN and
   +infinity. *)
let[@inline] leaf ~top ~m j =
  let b = j - top in
  if b > m then m else b

(* One step down the tree from node [j], which must be in
   [1, 2^levels - 1]. *)
let[@inline] [@nldl.bounds_validated "Scatter.splitter_tree"] step (tree : float array) j
    (key : float) =
  (2 * j) + Bool.to_int (not (key < Array.unsafe_get tree (j - 1)))

(* Put a key classified into counter [c]: bump the counter, and when
   [scatter] first store the key at the slot it held. *)
let[@inline] [@nldl.bounds_validated "Scatter.exclusive_prefix"] place ~scatter counts
    (data : float array) c (key : float) =
  let at = Array.unsafe_get counts c in
  if scatter then Array.unsafe_set data at key;
  Array.unsafe_set counts c (at + 1)

(* One classification pass over [keys.(lo) .. keys.(hi - 1)]: each key,
   in input order, goes to counter [base + bucket] through [place], so
   the histogram pass and the stable scatter pass are the same loop.
   Four keys descend the tree together: their four load/compare/shift
   chains are independent, so they overlap where one key at a time
   waits out each step.  The callers give [counts] at least [base + m +
   1] entries. *)
let[@nldl.bounds_validated "Scatter.splitter_tree"] classify ~scatter
    (tree : float array) ~levels ~m (keys : float array) ~lo ~hi counts ~base
    (data : float array) =
  let top = 1 lsl levels in
  let i = ref lo in
  while !i + 4 <= hi do
    let k0 = Array.unsafe_get keys !i and k1 = Array.unsafe_get keys (!i + 1) in
    let k2 = Array.unsafe_get keys (!i + 2) and k3 = Array.unsafe_get keys (!i + 3) in
    let j0 = ref 1 and j1 = ref 1 and j2 = ref 1 and j3 = ref 1 in
    for _ = 1 to levels do
      j0 := step tree !j0 k0;
      j1 := step tree !j1 k1;
      j2 := step tree !j2 k2;
      j3 := step tree !j3 k3
    done;
    place ~scatter counts data (base + leaf ~top ~m !j0) k0;
    place ~scatter counts data (base + leaf ~top ~m !j1) k1;
    place ~scatter counts data (base + leaf ~top ~m !j2) k2;
    place ~scatter counts data (base + leaf ~top ~m !j3) k3;
    i := !i + 4
  done;
  for i = !i to hi - 1 do
    let key = Array.unsafe_get keys i in
    let j = ref 1 in
    for _ = 1 to levels do
      j := step tree !j key
    done;
    place ~scatter counts data (base + leaf ~top ~m !j) key
  done

let histogram_floats_into counts (keys : float array) ~(splitters : float array) =
  let m = Array.length splitters in
  if Array.length counts < m + 1 then
    invalid_arg "Scatter.histogram_floats_into: counts shorter than p";
  Array.fill counts 0 (m + 1) 0;
  let n = Array.length keys in
  let levels = levels_of m in
  let tree = splitter_tree splitters ~levels in
  classify ~scatter:false tree ~levels ~m keys ~lo:0 ~hi:n counts ~base:0 keys;
  Obs.Metrics.add m_comparisons (levels * n)

let histogram_floats (keys : float array) ~(splitters : float array) =
  let counts = Array.make (Array.length splitters + 1) 0 in
  histogram_floats_into counts keys ~splitters;
  counts

let exclusive_prefix counts =
  let p = Array.length counts in
  let offsets = Array.make (p + 1) 0 in
  for b = 0 to p - 1 do
    offsets.(b + 1) <- offsets.(b) + counts.(b)
  done;
  offsets

let empty_result ~p = { data = [||]; offsets = Array.make (p + 1) 0 }

(* Cursor targets stay inside [data]: [exclusive_prefix] turns the
   histogram into bucket starts summing to [n], and each bucket's cursor
   advances exactly its count times. *)
let[@nldl.bounds_validated "Scatter.exclusive_prefix"] partition_floats
    (keys : float array) ~(splitters : float array) =
  let n = Array.length keys in
  let p = Array.length splitters + 1 in
  if n = 0 then empty_result ~p
  else begin
    let m = p - 1 in
    let levels = levels_of m in
    let tree = splitter_tree splitters ~levels in
    Obs.Trace.begin_span "scatter.histogram";
    let cursors = Array.make p 0 in
    classify ~scatter:false tree ~levels ~m keys ~lo:0 ~hi:n cursors ~base:0 keys;
    let offsets = exclusive_prefix cursors in
    Obs.Trace.end_span "scatter.histogram";
    Array.blit offsets 0 cursors 0 p;
    Obs.Trace.begin_span "scatter.scatter";
    let data = Array.create_float n in
    classify ~scatter:true tree ~levels ~m keys ~lo:0 ~hi:n cursors ~base:0 data;
    Obs.Trace.end_span "scatter.scatter";
    Obs.Metrics.add m_comparisons (2 * levels * n);
    { data; offsets }
  end

(* Slice geometry for the pool variant: a function of [n] only — never
   of the worker count — so the merged prefix, and therefore the output,
   cannot depend on how many domains run. *)
let slice_count n = if n < 16_384 then 1 else min 64 (n / 8_192)
let slice_lo ~n ~slices s = s * n / slices

(* Turn the slice-major count matrix into per-(slice, bucket) write
   cursors, in place: bucket b's region holds slice 0's keys, then slice
   1's, ... — exactly input order, i.e. the same stable order as the
   sequential scatter.  Returns the bucket offsets. *)
let merge_cursors counts ~slices ~p =
  let offsets = Array.make (p + 1) 0 in
  let total = ref 0 in
  for b = 0 to p - 1 do
    offsets.(b) <- !total;
    for s = 0 to slices - 1 do
      let c = counts.((s * p) + b) in
      counts.((s * p) + b) <- !total;
      total := !total + c
    done
  done;
  offsets.(p) <- !total;
  offsets

(* Per-slice cursor bases come from [merge_cursors] (global exclusive
   prefix over the slice histograms), so every [base + b] write lands
   in that slice's disjoint span of [data]. *)
let[@nldl.bounds_validated "Scatter.merge_cursors"] partition_floats_pool
    ?workers pool (keys : float array) ~(splitters : float array) =
  let n = Array.length keys in
  let p = Array.length splitters + 1 in
  if n = 0 then empty_result ~p
  else begin
    let slices = slice_count n in
    if slices = 1 then partition_floats keys ~splitters
    else begin
      let m = p - 1 in
      let levels = levels_of m in
      let tree = splitter_tree splitters ~levels in
      let counts = Array.make (slices * p) 0 in
      Exec.Pool.parallel_for ?workers pool slices (fun s ->
          classify ~scatter:false tree ~levels ~m keys ~lo:(slice_lo ~n ~slices s)
            ~hi:(slice_lo ~n ~slices (s + 1))
            counts ~base:(s * p) keys);
      let offsets = merge_cursors counts ~slices ~p in
      let data = Array.create_float n in
      Exec.Pool.parallel_for ?workers pool slices (fun s ->
          classify ~scatter:true tree ~levels ~m keys ~lo:(slice_lo ~n ~slices s)
            ~hi:(slice_lo ~n ~slices (s + 1))
            counts ~base:(s * p) data);
      Obs.Metrics.add m_comparisons (2 * levels * n);
      { data; offsets }
    end
  end
