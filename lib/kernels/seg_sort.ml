(* In-place introsort over a float array segment.  Monomorphic for the
   same reason as [Scatter]: generic access to an unboxed [float array]
   boxes every element, so a polymorphic implementation would allocate
   O(len) words per sort. *)

[@@@nldl.unsafe_zone
  "every entry point runs check_bounds on (lo, len) before the unchecked \
   introsort/heapsort/insertion loops, whose indices stay inside the validated \
   segment by the partition invariants (U-audit 2026-08)"]

let check_bounds data ~lo ~len =
  if lo < 0 || len < 0 || lo + len > Array.length data then
    invalid_arg "Seg_sort.sort_floats: segment out of bounds"

let depth_budget len =
  let d = ref 0 in
  let n = ref len in
  while !n > 1 do
    incr d;
    n := !n / 2
  done;
  2 * !d

let insertion (data : float array) lo hi =
  for i = lo + 1 to hi - 1 do
    let x = Array.unsafe_get data i in
    let j = ref (i - 1) in
    while !j >= lo && Array.unsafe_get data !j > x do
      Array.unsafe_set data (!j + 1) (Array.unsafe_get data !j);
      decr j
    done;
    Array.unsafe_set data (!j + 1) x
  done

let heapsort (data : float array) lo hi =
  let len = hi - lo in
  let sift root last =
    let r = ref root in
    let continue = ref true in
    while !continue do
      let child = (2 * !r) + 1 in
      if child > last then continue := false
      else begin
        let child =
          if
            child + 1 <= last
            && Array.unsafe_get data (lo + child) < Array.unsafe_get data (lo + child + 1)
          then child + 1
          else child
        in
        if Array.unsafe_get data (lo + !r) < Array.unsafe_get data (lo + child) then begin
          let tmp = Array.unsafe_get data (lo + !r) in
          Array.unsafe_set data (lo + !r) (Array.unsafe_get data (lo + child));
          Array.unsafe_set data (lo + child) tmp;
          r := child
        end
        else continue := false
      end
    done
  in
  for root = (len / 2) - 1 downto 0 do
    sift root (len - 1)
  done;
  for last = len - 1 downto 1 do
    let tmp = Array.unsafe_get data lo in
    Array.unsafe_set data lo (Array.unsafe_get data (lo + last));
    Array.unsafe_set data (lo + last) tmp;
    sift 0 (last - 1)
  done

(* [mid] ∈ [lo, hi) and [lo, hi) ⊆ [0, length data): the public entry
   runs [check_bounds] once, and recursion only narrows the segment. *)
let[@nldl.bounds_validated "Seg_sort.check_bounds"] rec intro
    (data : float array) lo hi depth =
  if hi - lo <= 16 then insertion data lo hi
  else if depth <= 0 then heapsort data lo hi
  else begin
    let mid = lo + ((hi - lo) / 2) in
    let a = Array.unsafe_get data lo
    and b = Array.unsafe_get data mid
    and c = Array.unsafe_get data (hi - 1) in
    let pivot =
      if a < b then if b < c then b else if a < c then c else a
      else if a < c then a
      else if b < c then c
      else b
    in
    (* Hoare partition: safe because [pivot] is a value of the segment,
       so both scans stop before running off the end. *)
    let i = ref (lo - 1) and j = ref hi in
    let continue = ref true in
    while !continue do
      incr i;
      while Array.unsafe_get data !i < pivot do
        incr i
      done;
      decr j;
      while Array.unsafe_get data !j > pivot do
        decr j
      done;
      if !i >= !j then continue := false
      else begin
        let tmp = Array.unsafe_get data !i in
        Array.unsafe_set data !i (Array.unsafe_get data !j);
        Array.unsafe_set data !j tmp
      end
    done;
    intro data lo (!j + 1) (depth - 1);
    intro data (!j + 1) hi (depth - 1)
  end

let sort_floats data ~lo ~len =
  check_bounds data ~lo ~len;
  if len > 1 then begin
    Obs.Trace.begin_span "segsort.sort_floats";
    intro data lo (lo + len) (depth_budget len);
    Obs.Trace.end_span "segsort.sort_floats"
  end
