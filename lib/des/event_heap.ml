(* Implicit binary min-heap in structure-of-arrays layout: the DES hot
   path.

   A boxed heap of records pays a 4-word [entry] record per push plus
   an [Some (priority, payload)] pair per pop: ~393 ns and ~10 minor
   words per push+pop at 10k events, which would cap every consumer
   (the MapReduce scheduler, the engine, the demand-driven
   partitioners) far below the 10^5-worker x 10^6-task scale the paper
   sweeps need.  That boxed heap, [Event_queue], is now the ordering
   oracle in test/.  This module keeps the same (priority, FIFO-by-seq)
   ordering contract with zero per-operation allocation:

   - priorities live in a flat [float array]: OCaml stores those
     unboxed, and [Array.unsafe_get] on a statically-known float array
     is a single direct float64 load (a Bigarray access would pay an
     extra indirection through the data pointer on every sift step —
     measurably slower in the sift loops);
   - the insertion seq number (FIFO tie-break) and the int-encoded
     payload of slot [k] sit side by side at [meta.(2k)] and
     [meta.(2k+1)]: both are immediate ints, and interleaving them
     means each sift step touches two adjacent words (one cache line)
     instead of two separate arrays;
   - [push]/[pop] are [@inline always] wrappers so the float [priority]
     argument stays unboxed at every call site (a plain cross-module
     call would box it — the same reasoning as Fbuf's externals), while
     the iterative sift loops stay out of line (they move floats only
     between buffer slots, never through a call boundary);
   - growth doubles both buffers at once, so allocation is amortized
     O(1) per push and exactly zero once capacity is reached.

   Payloads are ints by design: consumers encode their event in the
   integer (tag in the low bits, index in the high bits — see
   [Mapreduce.Scheduler]) or use it as a slot index into a side table
   (see [Engine]'s handler slab). *)

[@@@nldl.unsafe_zone
  "sift loops and push/pop access slots [0, size) of the prio buffer and \
   [0, 2*size) of the meta buffer; [size] is bounds-checked against \
   capacity in push (grow) and against 0 in pop before any unsafe access \
   (U-audit 2026-08)"]

type t = {
  mutable prio : float array;  (* heap slot -> priority *)
  mutable meta : int array;  (* slot k -> seq at 2k, payload at 2k+1 *)
  mutable size : int;
  mutable next_seq : int;
  mutable hwm : int;  (* max [size] ever reached; one predicted branch per push *)
}

let create ?(initial_capacity = 16) () =
  let cap = max 1 initial_capacity in
  {
    prio = Array.make cap 0.;
    meta = Array.make (2 * cap) 0;
    size = 0;
    next_seq = 0;
    hwm = 0;
  }

let size t = t.size
let high_water t = t.hwm

let[@inline always] is_empty t = t.size = 0

(* Undefined when empty (returns whatever is in slot 0); callers check
   [is_empty] first.  Inlined so the read is a direct unboxed load. *)
let[@inline always] min_priority t = Array.unsafe_get t.prio 0

(* (prio, seq) lexicographic order, split into two comparisons so the
   common unequal-priority case never touches the seq words. *)

(* [i0 < t.size] is the callers' invariant: [push] grows first and
   passes the slot it just filled; [relocate_last] passes a hole index
   the walk kept inside the heap. *)
let[@nldl.bounds_validated "Event_heap.push"] sift_up t i0 =
  let prio = t.prio and meta = t.meta in
  let p = Array.unsafe_get prio i0 in
  let s = Array.unsafe_get meta (2 * i0) in
  let y = Array.unsafe_get meta ((2 * i0) + 1) in
  let i = ref i0 in
  let live = ref true in
  while !live && !i > 0 do
    let parent = (!i - 1) lsr 1 in
    let pp = Array.unsafe_get prio parent in
    if p < pp || (p = pp && s < Array.unsafe_get meta (2 * parent)) then begin
      Array.unsafe_set prio !i pp;
      Array.unsafe_set meta (2 * !i) (Array.unsafe_get meta (2 * parent));
      Array.unsafe_set meta ((2 * !i) + 1) (Array.unsafe_get meta ((2 * parent) + 1));
      i := parent
    end
    else live := false
  done;
  Array.unsafe_set prio !i p;
  Array.unsafe_set meta (2 * !i) s;
  Array.unsafe_set meta ((2 * !i) + 1) y

(* Floyd's bottom-up delete-min: the hole left by the popped root walks
   to a leaf along the min-child path with no comparison against the
   element being relocated (the old last slot, which is large and would
   sink near a leaf anyway), then that element drops into the hole and
   [sift_up] repairs the rare overshoot.  One float compare and one
   branch per level cheaper than the classic sift-down.  The pop order
   is unaffected: every delete-min returns the global minimum of a
   unique-(prio, seq) key set, whatever the internal arrangement. *)
let[@nldl.bounds_validated "Event_heap.pop"] sift_hole_down t =
  let prio = t.prio and meta = t.meta in
  let n = t.size in
  let i = ref 0 in
  let l = ref 1 in
  (* fast path: both children exist; the move reuses the child priority
     already in a register instead of re-loading it *)
  while !l + 1 < n do
    let l0 = !l in
    let r = l0 + 1 in
    let pl = Array.unsafe_get prio l0 and pr = Array.unsafe_get prio r in
    let hole = !i in
    if pr < pl
       || (pr = pl && Array.unsafe_get meta (2 * r) < Array.unsafe_get meta (2 * l0))
    then begin
      Array.unsafe_set prio hole pr;
      Array.unsafe_set meta (2 * hole) (Array.unsafe_get meta (2 * r));
      Array.unsafe_set meta ((2 * hole) + 1) (Array.unsafe_get meta ((2 * r) + 1));
      i := r;
      l := (2 * r) + 1
    end
    else begin
      Array.unsafe_set prio hole pl;
      Array.unsafe_set meta (2 * hole) (Array.unsafe_get meta (2 * l0));
      Array.unsafe_set meta ((2 * hole) + 1) (Array.unsafe_get meta ((2 * l0) + 1));
      i := l0;
      l := (2 * l0) + 1
    end
  done;
  (if !l < n then begin
     (* frontier slot with a single (left) child *)
     let l0 = !l in
     let hole = !i in
     Array.unsafe_set prio hole (Array.unsafe_get prio l0);
     Array.unsafe_set meta (2 * hole) (Array.unsafe_get meta (2 * l0));
     Array.unsafe_set meta ((2 * hole) + 1) (Array.unsafe_get meta ((2 * l0) + 1));
     i := l0
   end);
  !i

let grow t =
  let cap = Array.length t.prio in
  let cap' = 2 * cap in
  let prio' = Array.make cap' 0. in
  Array.blit t.prio 0 prio' 0 t.size;
  let meta' = Array.make (2 * cap') 0 in
  Array.blit t.meta 0 meta' 0 (2 * t.size);
  t.prio <- prio';
  t.meta <- meta'

let[@inline always] push t ~priority payload =
  if priority <> priority (* NaN: would corrupt the heap order *) then
    invalid_arg "Event_heap.push: NaN priority";
  if t.size = Array.length t.prio then grow t;
  let i = t.size in
  Array.unsafe_set t.prio i priority;
  Array.unsafe_set t.meta (2 * i) t.next_seq;
  Array.unsafe_set t.meta ((2 * i) + 1) payload;
  t.size <- i + 1;
  if i + 1 > t.hwm then t.hwm <- i + 1;
  t.next_seq <- t.next_seq + 1;
  sift_up t i

(* Out-of-line tail of [pop]: walk the hole down, drop the old last
   element (slot [n], already outside [t.size]) into it, and call
   [sift_up] only when the single inlined parent check says the element
   overshot — which is rare, since it came from a leaf. *)
let[@nldl.bounds_validated "Event_heap.pop"] relocate_last t n =
  let hole = sift_hole_down t in
  let prio = t.prio and meta = t.meta in
  let p = Array.unsafe_get prio n in
  let s = Array.unsafe_get meta (2 * n) in
  Array.unsafe_set prio hole p;
  Array.unsafe_set meta (2 * hole) s;
  Array.unsafe_set meta ((2 * hole) + 1) (Array.unsafe_get meta ((2 * n) + 1));
  if hole > 0 then begin
    let parent = (hole - 1) lsr 1 in
    let pp = Array.unsafe_get prio parent in
    if p < pp || (p = pp && s < Array.unsafe_get meta (2 * parent)) then
      sift_up t hole
  end

let[@inline always] pop t =
  if t.size = 0 then invalid_arg "Event_heap.pop: empty heap";
  let top = Array.unsafe_get t.meta 1 in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then relocate_last t n;
  top

(* Intra-module driver for the Gc-counter zero-allocation proof and the
   events/sec bench.  Dev-profile dune passes [-opaque], which disables
   the cross-module inlining that keeps [push]'s float argument unboxed;
   an external measurement loop would therefore observe one boxed float
   per push that release builds (and every inlined call site) do not
   pay.  Driving the loop from inside the module keeps the measurement
   build-profile independent.  [batch] pushes with scrambled priorities,
   then [batch] pops, [rounds] times, on top of whatever the heap
   already holds. *)
let exercise t ~rounds ~batch =
  for r = 0 to rounds - 1 do
    for i = 0 to batch - 1 do
      let x = (r * batch) + i in
      push t ~priority:(float_of_int ((x * 7919) land 0xFFFFF)) x
    done;
    for _ = 1 to batch do
      ignore (pop t)
    done
  done
