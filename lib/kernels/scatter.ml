(* Counting-based scatter kernels: bucket-index histogram, exclusive
   prefix sum, stable scatter into one preallocated array.  See the .mli
   for the determinism contract.  Every kernel is monomorphic on
   [float array]: generic access to an unboxed float array boxes every
   read, which would reintroduce the O(n) allocation this layer
   removes. *)

[@@@nldl.unsafe_zone
  "the branchless splitter search probes only [base + half - 1] in \
   [0, |splitters| - 1], because its answer always lies in [base, base + len - 1] \
   inside [0, |splitters|]; scatter writes land inside the preallocated [data] \
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

(* The one splitter search: smallest i < m with key < splitters.(i), m
   when none.  A branchless upper bound, since a branchy bisection
   mispredicts about half its branches on random keys: the answer
   always lies in [base, base + len - 1], so every probe index is in
   [0, m - 1], and each key costs exactly ceil(log2 (m + 1))
   comparisons whose outcome feeds an add, never a jump.  Inlined at
   every call site, so the loop runs over local refs (kept in
   registers) and the float key is never boxed; callers hoist
   [m = Array.length splitters] out of their key loops, which is what
   the invariant needs. *)
let[@inline] [@nldl.bounds_validated "Scatter.search"] search (splitters : float array) m
    (key : float) =
  let base = ref 0 and len = ref (m + 1) in
  while !len > 1 do
    let half = !len lsr 1 in
    base :=
      !base + (half * Bool.to_int (not (key < Array.unsafe_get splitters (!base + half - 1))));
    len := !len - half
  done;
  !base

let bucket_index_floats (splitters : float array) (key : float) =
  search splitters (Array.length splitters) key

(* [search] returns a bucket in [0, m], and the entry check guarantees
   [counts] has at least [m + 1] entries. *)
let[@nldl.bounds_validated "Scatter.search"] histogram_floats_into counts
    (keys : float array) ~(splitters : float array) =
  let m = Array.length splitters in
  if Array.length counts < m + 1 then
    invalid_arg "Scatter.histogram_floats_into: counts shorter than p";
  Array.fill counts 0 (m + 1) 0;
  for i = 0 to Array.length keys - 1 do
    let b = search splitters m (Array.unsafe_get keys i) in
    Array.unsafe_set counts b (Array.unsafe_get counts b + 1)
  done

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
    Obs.Trace.begin_span "scatter.histogram";
    let cursors = histogram_floats keys ~splitters in
    let offsets = exclusive_prefix cursors in
    Obs.Trace.end_span "scatter.histogram";
    Array.blit offsets 0 cursors 0 p;
    Obs.Trace.begin_span "scatter.scatter";
    let data = Array.create_float n in
    let m = Array.length splitters in
    for i = 0 to n - 1 do
      let key = Array.unsafe_get keys i in
      let b = search splitters m key in
      let at = Array.unsafe_get cursors b in
      Array.unsafe_set data at key;
      Array.unsafe_set cursors b (at + 1)
    done;
    Obs.Trace.end_span "scatter.scatter";
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
      let m = Array.length splitters in
      let counts = Array.make (slices * p) 0 in
      Exec.Pool.parallel_for ?workers pool slices (fun s ->
          let i0 = slice_lo ~n ~slices s and i1 = slice_lo ~n ~slices (s + 1) in
          let base = s * p in
          for i = i0 to i1 - 1 do
            let c = base + search splitters m (Array.unsafe_get keys i) in
            Array.unsafe_set counts c (Array.unsafe_get counts c + 1)
          done);
      let offsets = merge_cursors counts ~slices ~p in
      let data = Array.create_float n in
      Exec.Pool.parallel_for ?workers pool slices (fun s ->
          let i0 = slice_lo ~n ~slices s and i1 = slice_lo ~n ~slices (s + 1) in
          let base = s * p in
          for i = i0 to i1 - 1 do
            let key = Array.unsafe_get keys i in
            let c = base + search splitters m key in
            let at = Array.unsafe_get counts c in
            Array.unsafe_set data at key;
            Array.unsafe_set counts c (at + 1)
          done);
      { data; offsets }
    end
  end
