type result = {
  splitters : float array;
  bucket_sizes : int array;
  sorted : float array;
}

(* Flat-buffer PSRS: the p local chunks live inside one working copy of
   the keys (chunk c is [chunk_off.(c), chunk_off.(c + 1)), offsets
   convention) and are sorted in place; the exchange phase records, per
   chunk, the p + 1 bucket boundaries in one flat [p × (p + 1)] int
   matrix instead of slicing a fresh array per (chunk, bucket); the
   merge phase streams every bucket's p runs straight into the output
   through one reusable merger.  Auxiliary allocation is O(p²) —
   nothing per key — where the array-of-arrays predecessor allocated
   ~100 words per key (chunk copies, per-slice subs, cons cells and a
   boxing priority queue). *)
let sort keys ~p =
  if p < 1 then invalid_arg "Psrs.sort: p must be >= 1";
  let n = Array.length keys in
  if n = 0 then { splitters = [||]; bucket_sizes = Array.make p 0; sorted = [||] }
  else begin
    (* Local phase: p contiguous chunks of one working copy, each sorted
       in place. *)
    Obs.Trace.begin_span "psrs.local_sort";
    let chunk_sizes = Numerics.Apportion.largest_remainder ~weights:(Array.make p 1.) ~total:n in
    let chunk_off = Array.make (p + 1) 0 in
    for c = 0 to p - 1 do
      chunk_off.(c + 1) <- chunk_off.(c) + chunk_sizes.(c)
    done;
    let work = Array.copy keys in
    for c = 0 to p - 1 do
      Kernels.Seg_sort.sort_floats work ~lo:chunk_off.(c) ~len:(chunk_off.(c + 1) - chunk_off.(c))
    done;
    (* Regular samples: p from each non-empty chunk, written into a
       preallocated p*p array (chunks are only empty when n < p, so [m]
       tracks how much of it is live). *)
    let samples = Array.make (p * p) 0. in
    let m = ref 0 in
    for c = 0 to p - 1 do
      let lo = chunk_off.(c) in
      let size = chunk_off.(c + 1) - lo in
      if size > 0 then
        for j = 0 to p - 1 do
          samples.(!m) <- work.(lo + (j * size / p));
          incr m
        done
    done;
    let m = !m in
    Kernels.Seg_sort.sort_floats samples ~lo:0 ~len:m;
    let splitters =
      if p = 1 then [||]
      else
        Array.init (p - 1) (fun j ->
            let rank = (j + 1) * m / p in
            samples.(min rank (m - 1)))
    in
    Obs.Trace.end_span "psrs.local_sort";
    (* Exchange phase: row c of [bounds] holds chunk c's bucket
       boundaries — bounds.((c * stride) + b) is the first absolute
       index in chunk c whose key routes to bucket >= b (binary search
       resumed from the previous boundary, since boundaries are
       monotone in b). *)
    Obs.Trace.begin_span "psrs.exchange";
    let stride = p + 1 in
    let bounds = Array.make (p * stride) 0 in
    for c = 0 to p - 1 do
      let row = c * stride in
      let chi = chunk_off.(c + 1) in
      bounds.(row) <- chunk_off.(c);
      bounds.(row + p) <- chi;
      for b = 1 to p - 1 do
        let target = splitters.(b - 1) in
        let lo = ref bounds.(row + b - 1) and hi = ref chi in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if work.(mid) < target then lo := mid + 1 else hi := mid
        done;
        bounds.(row + b) <- !lo
      done
    done;
    Obs.Trace.end_span "psrs.exchange";
    (* Each bucket's p runs are already sorted: k-way merge them into
       the output, bucket after bucket. *)
    Obs.Trace.begin_span "psrs.merge";
    let sorted = Array.make n 0. in
    let bucket_sizes = Array.make p 0 in
    let mg = Merge.merger ~k:p in
    let out = ref 0 in
    for b = 0 to p - 1 do
      let len =
        Merge.k_way_strided mg ~src:work ~bounds ~runs:p ~stride ~off:b ~dst:sorted ~dst_lo:!out
      in
      bucket_sizes.(b) <- len;
      out := !out + len
    done;
    Obs.Trace.end_span "psrs.merge";
    { splitters; bucket_sizes; sorted }
  end
