(* In-place MSD radix sort (American-flag sort) over a float array
   segment.  Monomorphic for the same reason as [Scatter]: generic access
   to an unboxed [float array] boxes every element, so a polymorphic
   implementation would allocate O(len) words per sort.

   Every key is read through an order-preserving 64-bit image, so a
   level is a histogram of one 8-bit digit and a cycle permutation of
   the keys into its 256 sub-buckets; no comparison of two keys decides
   a branch until the leaves. *)

[@@@nldl.unsafe_zone
  "every entry point runs check_bounds on (lo, len) before the unchecked \
   radix/insertion loops: recursion only narrows the segment to one of its \
   sub-buckets, whose write heads stay inside their counted ranges, and the \
   workspace is indexed by a level below max_levels and a digit below radix \
   (U-audit 2026-10)"]
[@@@nldl.domain_safe
  "the count/boundary workspace is domain-local (Domain.DLS): each domain \
   allocates its own on first use, and a call never escapes its domain"]

let check_bounds data ~lo ~len =
  if lo < 0 || len < 0 || lo + len > Array.length data then
    invalid_arg "Seg_sort.sort_floats: segment out of bounds"

(* Segments this short go to insertion sort. *)
let leaf = 48
let radix = 256

(* A level's digit holds the highest bit on which its segment's keys
   differ, and its sub-buckets agree on every bit from that digit up, so
   each level consumes at least 8 of the image's 64 bits. *)
let max_levels = 8

(* Per domain: the sub-bucket ends of each recursion level, then the
   write heads of the level being permuted. *)
let workspace = Domain.DLS.new_key (fun () -> Array.make ((max_levels + 1) * radix) 0)

(* The order-preserving image as a signed integer: positive keys keep
   their bits and negative keys flip all but the sign, so signed order
   is −NaN < −∞ < … < −0 < +0 < … < +∞ < +NaN. *)
let[@inline] key x =
  let b = Int64.bits_of_float x in
  Int64.logxor b (Int64.shift_right_logical (Int64.shift_right b 63) 1)

(* The same image as unsigned bits (sign bit flipped), read digit-wise:
   a set sign flips every bit, a clear one only the sign. *)
let[@inline] digit x shift =
  Int64.to_int (Int64.shift_right_logical (Int64.logxor (key x) Int64.min_int) shift)
  land (radix - 1)

let insertion (data : float array) lo hi =
  for i = lo + 1 to hi - 1 do
    let x = Array.unsafe_get data i in
    let kx = key x in
    let j = ref (i - 1) in
    while !j >= lo && key (Array.unsafe_get data !j) > kx do
      Array.unsafe_set data (!j + 1) (Array.unsafe_get data !j);
      decr j
    done;
    Array.unsafe_set data (!j + 1) x
  done

(* [lo, hi) ⊆ [0, length data): the public entry runs [check_bounds]
   once, and recursion only narrows the segment. *)
let[@nldl.bounds_validated "Seg_sort.check_bounds"] rec flag_sort ws
    (data : float array) lo hi level =
  if hi - lo <= leaf then insertion data lo hi
  else begin
    let first = key (Array.unsafe_get data lo) in
    let diff = ref 0L in
    for i = lo + 1 to hi - 1 do
      diff := Int64.logor !diff (Int64.logxor (key (Array.unsafe_get data i)) first)
    done;
    (* [diff = 0]: every image is equal, so the segment is sorted. *)
    if !diff <> 0L then begin
      let top = ref 63 in
      while Int64.shift_right_logical !diff !top = 0L do
        decr top
      done;
      let shift = max 0 (!top - 7) in
      let ends = level * radix and heads = max_levels * radix in
      Array.fill ws heads radix 0;
      for i = lo to hi - 1 do
        let h = heads + digit (Array.unsafe_get data i) shift in
        Array.unsafe_set ws h (Array.unsafe_get ws h + 1)
      done;
      let pos = ref lo in
      for d = 0 to radix - 1 do
        let count = Array.unsafe_get ws (heads + d) in
        Array.unsafe_set ws (heads + d) !pos;
        pos := !pos + count;
        Array.unsafe_set ws (ends + d) !pos
      done;
      (* Cycle each misplaced key to the write head of its digit until
         the key that lands here belongs here. *)
      for d = 0 to radix - 1 do
        let e = Array.unsafe_get ws (ends + d) in
        while Array.unsafe_get ws (heads + d) < e do
          let v = ref (Array.unsafe_get data (Array.unsafe_get ws (heads + d))) in
          let k = ref (digit !v shift) in
          while !k <> d do
            let j = Array.unsafe_get ws (heads + !k) in
            Array.unsafe_set ws (heads + !k) (j + 1);
            let t = Array.unsafe_get data j in
            Array.unsafe_set data j !v;
            v := t;
            k := digit t shift
          done;
          let h = Array.unsafe_get ws (heads + d) in
          Array.unsafe_set data h !v;
          Array.unsafe_set ws (heads + d) (h + 1)
        done
      done;
      (* At [shift = 0] each sub-bucket holds one image. *)
      if shift > 0 then begin
        let start = ref lo in
        for d = 0 to radix - 1 do
          let e = Array.unsafe_get ws (ends + d) in
          if e - !start > 1 then flag_sort ws data !start e (level + 1);
          start := e
        done
      end
    end
  end

let sort_floats data ~lo ~len =
  check_bounds data ~lo ~len;
  if len > 1 then begin
    Obs.Trace.begin_span "segsort.sort_floats";
    flag_sort (Domain.DLS.get workspace) data lo (lo + len) 0;
    Obs.Trace.end_span "segsort.sort_floats"
  end
