(* Log2-bucketed (HDR-style) histograms for million-event scale: the
   one histogram type of [Obs].

   Fixed bucket bounds work for a handful of known ranges but cannot
   resolve the heavy-tailed latencies a fault-injected million-task
   simulation produces.  [Hist] buckets by bit length with
   [sub_count] linear sub-buckets per octave: values below [sub_count]
   are counted exactly, larger values land in a bucket whose width is
   at most [1/sub_count] of its lower bound, so any quantile estimate
   carries a bounded ~3% relative error while the whole range of
   non-negative OCaml ints fits in 1856 slots.

   Recording is sharded per domain exactly like [Metrics]: each domain
   lazily allocates a private slot array per histogram (registered
   globally under [mutex], merged at snapshot), so a record is a few
   unsynchronized stores into domain-local memory.  Hot loops that
   record at every event should hoist the [shard] lookup out of the
   loop and call [record_into] directly; both paths allocate zero words
   after the shard exists. *)

[@@@nldl.unsafe_zone
  "bucket indices come from [bucket_of], which maps any clamped \
   non-negative int into [0, n_buckets); [msb_table] is indexed by a \
   byte; stats slots use constant indices 0..3 into 4-slot arrays \
   (U-audit 2026-08)"]
[@@@nldl.domain_safe
  "registry list and shard slot tables are mutated only under [mutex]; \
   hot-path records go to this domain's DLS shard, merged at snapshot \
   under the same mutex; [msb_table] is written once at module init \
   before any domain can read it"]

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

(* --- bucket geometry --------------------------------------------------- *)

let sub_bits = 5
let sub_count = 1 lsl sub_bits (* 32 linear sub-buckets per octave *)

(* Highest value bucket index: msb of max_int is 61, giving
   (61 - sub_bits + 1) full octaves of [sub_count] buckets on top of
   the [sub_count] exact small-value buckets. *)
let n_buckets = ((61 - sub_bits + 1) * sub_count) + sub_count

(* Bit length minus one for each byte value; index 0 is unused (callers
   guarantee v >= sub_count > 0). *)
let msb_table =
  Array.init 256 (fun i ->
      let rec go n k = if n = 0 then k else go (n lsr 1) (k + 1) in
      go i (-1))

let[@inline] msb v =
  if v lsr 32 = 0 then
    if v lsr 16 = 0 then
      if v lsr 8 = 0 then Array.unsafe_get msb_table v
      else 8 + Array.unsafe_get msb_table (v lsr 8)
    else if v lsr 24 = 0 then 16 + Array.unsafe_get msb_table (v lsr 16)
    else 24 + Array.unsafe_get msb_table (v lsr 24)
  else if v lsr 48 = 0 then
    if v lsr 40 = 0 then 32 + Array.unsafe_get msb_table (v lsr 32)
    else 40 + Array.unsafe_get msb_table (v lsr 40)
  else if v lsr 56 = 0 then 48 + Array.unsafe_get msb_table (v lsr 48)
  else 56 + Array.unsafe_get msb_table (v lsr 56)

let[@inline] bucket_of v =
  if v < sub_count then v
  else
    let m = msb v in
    let shift = m - sub_bits in
    ((shift + 1) lsl sub_bits) lor ((v lsr shift) land (sub_count - 1))

let bucket_lo i =
  if i < sub_count then i
  else
    let q = i lsr sub_bits and r = i land (sub_count - 1) in
    (sub_count lor r) lsl (q - 1)

let bucket_hi i =
  if i < sub_count then i
  else
    let q = i lsr sub_bits in
    bucket_lo i + (1 lsl (q - 1)) - 1

(* --- registry and per-domain shards ------------------------------------ *)

type t = { id : int; name : string }

(* One domain's slots for one histogram: [b] holds bucket counts, [st]
   is a 4-slot stats array (0 = count, 1 = sum, 2 = min, 3 = max) kept
   flat so [record_into] never boxes. *)
type shard = { b : int array; st : int array }

let null_shard = { b = [||]; st = [||] }

type dshard = { mutable slots : shard array (* indexed by histogram id *) }

let mutex = Mutex.create ()
let registered : t list ref = ref [] (* reverse registration order *)
let n_registered = ref 0
let dshards : dshard list ref = ref []

let dkey =
  Domain.DLS.new_key (fun () ->
      Mutex.lock mutex;
      let d = { slots = Array.make (max 8 !n_registered) null_shard } in
      dshards := d :: !dshards;
      Mutex.unlock mutex;
      d)

let create name =
  Mutex.lock mutex;
  let h =
    match List.find_opt (fun h -> h.name = name) !registered with
    | Some h -> h
    | None ->
        let h = { id = !n_registered; name } in
        incr n_registered;
        registered := h :: !registered;
        h
  in
  Mutex.unlock mutex;
  h

let name h = h.name

(* Slow path: first record of histogram [h] on this domain (or [h] was
   registered after the domain shard table was sized). *)
let new_slots d id =
  Mutex.lock mutex;
  if id >= Array.length d.slots then begin
    let grown =
      Array.make (max (id + 1) (2 * Array.length d.slots)) null_shard
    in
    Array.blit d.slots 0 grown 0 (Array.length d.slots);
    d.slots <- grown
  end;
  if d.slots.(id) == null_shard then
    d.slots.(id) <-
      { b = Array.make n_buckets 0; st = [| 0; 0; max_int; min_int |] };
  Mutex.unlock mutex;
  d.slots.(id)

let shard h =
  let d = Domain.DLS.get dkey in
  if h.id < Array.length d.slots then begin
    let s = Array.unsafe_get d.slots h.id in
    if s != null_shard then s else new_slots d h.id
  end
  else new_slots d h.id

(* [bucket_of] clamps any non-negative value into [0, buckets); the
   [st] summary slots are the fixed constants 0..3 of its 4-wide
   array. *)
let[@inline] [@nldl.bounds_validated "Hist.bucket_of"] record_into s v =
  let v = if v < 0 then 0 else v in
  let i = bucket_of v in
  Array.unsafe_set s.b i (Array.unsafe_get s.b i + 1);
  let st = s.st in
  Array.unsafe_set st 0 (Array.unsafe_get st 0 + 1);
  Array.unsafe_set st 1 (Array.unsafe_get st 1 + v);
  if v < Array.unsafe_get st 2 then Array.unsafe_set st 2 v;
  if v > Array.unsafe_get st 3 then Array.unsafe_set st 3 v

let record h v = if Atomic.get enabled_flag then record_into (shard h) v

(* --- snapshot ----------------------------------------------------------- *)

type summary = {
  s_name : string;
  count : int;
  sum : int;
  min_v : int; (* 0 when count = 0 *)
  max_v : int;
  counts : int array; (* merged bucket counts, length [n_buckets] *)
}

let snapshot_one h =
  Mutex.lock mutex;
  let counts = Array.make n_buckets 0 in
  let count = ref 0 and sum = ref 0 in
  let mn = ref max_int and mx = ref min_int in
  List.iter
    (fun d ->
      if h.id < Array.length d.slots then begin
        let s = d.slots.(h.id) in
        if s != null_shard then begin
          Array.iteri (fun i v -> counts.(i) <- counts.(i) + v) s.b;
          count := !count + s.st.(0);
          sum := !sum + s.st.(1);
          if s.st.(2) < !mn then mn := s.st.(2);
          if s.st.(3) > !mx then mx := s.st.(3)
        end
      end)
    !dshards;
  Mutex.unlock mutex;
  {
    s_name = h.name;
    count = !count;
    sum = !sum;
    min_v = (if !count = 0 then 0 else !mn);
    max_v = (if !count = 0 then 0 else !mx);
    counts;
  }

let snapshot () =
  let hs = Mutex.protect mutex (fun () -> List.rev !registered) in
  List.map snapshot_one hs

let reset () =
  Mutex.lock mutex;
  List.iter
    (fun d ->
      Array.iter
        (fun s ->
          if s != null_shard then begin
            Array.fill s.b 0 (Array.length s.b) 0;
            s.st.(0) <- 0;
            s.st.(1) <- 0;
            s.st.(2) <- max_int;
            s.st.(3) <- min_int
          end)
        d.slots)
    !dshards;
  Mutex.unlock mutex

(* --- quantiles ---------------------------------------------------------- *)

let mean s = if s.count = 0 then 0. else float_of_int s.sum /. float_of_int s.count

(* Rank-based estimate: find the bucket containing the ceil(q*count)-th
   smallest sample and report its upper bound (clamped to the exact
   tracked extremes).  The estimate is never below the true value and
   overshoots by at most one bucket width, i.e. a relative error of at
   most 1/sub_count (~3%). *)
let quantile s q =
  if s.count = 0 then 0
  else if q <= 0. then s.min_v
  else if q >= 1. then s.max_v
  else begin
    let rank =
      let r = int_of_float (ceil (q *. float_of_int s.count)) in
      if r < 1 then 1 else if r > s.count then s.count else r
    in
    let i = ref 0 and cum = ref 0 in
    while !cum < rank && !i < n_buckets do
      cum := !cum + s.counts.(!i);
      incr i
    done;
    let est = bucket_hi (!i - 1) in
    let est = if est > s.max_v then s.max_v else est in
    if est < s.min_v then s.min_v else est
  end
