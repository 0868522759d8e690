(* Metrics registry: named counters and gauges.  Histograms live in
   [Hist].

   Counters are sharded per domain: every domain that touches a
   counter owns a private slot array (obtained through [Domain.DLS],
   registered globally on first touch), so a hot-path increment is a
   plain unsynchronized write to domain-local memory — no atomics, no
   contention, and no false sharing because each domain's slots live in
   their own heap blocks.  Shards are merged only at {!snapshot} time.

   The whole layer is gated on one atomic flag: when disabled (the
   default) every operation is a single flag load and allocates
   nothing. *)

[@@@nldl.unsafe_zone
  "counter slots are indexed by dense metric ids after grow_counts \
   guarantees the shard array covers the id (U-audit 2026-08)"]
[@@@nldl.domain_safe
  "registry lists and counts are mutated only under [mutex]; hot-path \
   increments go to this domain's DLS shard, merged at snapshot under the \
   same mutex"]

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

type counter = { c_id : int; c_name : string }
type gauge = { g_name : string; mutable g_value : float }

(* Shard of one domain: counter slots indexed by metric id, grown
   under the registry mutex when a counter registered later is first
   touched from this domain. *)
type shard = { mutable s_counts : int array }

let mutex = Mutex.create ()
let counters : counter list ref = ref [] (* reverse registration order *)
let gauges : gauge list ref = ref []
let n_counters = ref 0
let shards : shard list ref = ref []

let shard_key =
  Domain.DLS.new_key (fun () ->
      Mutex.lock mutex;
      let s = { s_counts = Array.make (max 8 !n_counters) 0 } in
      shards := s :: !shards;
      Mutex.unlock mutex;
      s)

let counter name =
  Mutex.lock mutex;
  let c =
    match List.find_opt (fun c -> c.c_name = name) !counters with
    | Some c -> c
    | None ->
        let c = { c_id = !n_counters; c_name = name } in
        incr n_counters;
        counters := c :: !counters;
        c
  in
  Mutex.unlock mutex;
  c

let gauge name =
  Mutex.lock mutex;
  let g =
    match List.find_opt (fun g -> g.g_name = name) !gauges with
    | Some g -> g
    | None ->
        let g = { g_name = name; g_value = Float.nan } in
        gauges := g :: !gauges;
        g
  in
  Mutex.unlock mutex;
  g

(* Slow path: the counter was registered after this domain's shard was
   created.  Grow under the mutex so [snapshot] never sees a torn
   shard. *)
let grow_counts s id =
  Mutex.lock mutex;
  if id >= Array.length s.s_counts then begin
    let grown = Array.make (max (id + 1) (2 * Array.length s.s_counts)) 0 in
    Array.blit s.s_counts 0 grown 0 (Array.length s.s_counts);
    s.s_counts <- grown
  end;
  Mutex.unlock mutex

let add c k =
  if Atomic.get enabled_flag then begin
    let s = Domain.DLS.get shard_key in
    if c.c_id >= Array.length s.s_counts then grow_counts s c.c_id;
    let a = s.s_counts in
    Array.unsafe_set a c.c_id (Array.unsafe_get a c.c_id + k)
  end

let incr_counter c = add c 1

let set_gauge g v = if Atomic.get enabled_flag then g.g_value <- v

(* --- snapshot ---------------------------------------------------------- *)

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
}

let snapshot () =
  Mutex.lock mutex;
  let counter_sums =
    List.rev_map
      (fun c ->
        let sum =
          List.fold_left
            (fun acc s ->
              if c.c_id < Array.length s.s_counts then acc + s.s_counts.(c.c_id) else acc)
            0 !shards
        in
        (c.c_name, sum))
      !counters
  in
  let gauge_values = List.rev_map (fun g -> (g.g_name, g.g_value)) !gauges in
  Mutex.unlock mutex;
  { counters = counter_sums; gauges = gauge_values }

let reset () =
  Mutex.lock mutex;
  List.iter (fun s -> Array.fill s.s_counts 0 (Array.length s.s_counts) 0) !shards;
  List.iter (fun g -> g.g_value <- Float.nan) !gauges;
  Mutex.unlock mutex
