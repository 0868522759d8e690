(* Span tracing on the monotonic nanosecond clock.

   Events are recorded into per-domain ring buffers (parallel int /
   byte / string arrays, preallocated on a domain's first event), so
   recording is a handful of array stores with no synchronization and
   no allocation — the name argument is expected to be a static string
   literal.  The whole layer is gated on one atomic flag: while
   disabled (the default) [begin_span]/[end_span]/[instant] are a
   single flag load, zero allocation. *)

[@@@nldl.unsafe_zone
  "ring writes index with [len land mask], always inside the fixed-capacity \
   per-domain arrays allocated at DLS-key init (U-audit 2026-08)"]
[@@@nldl.domain_safe
  "per-domain DLS ring buffers; the global [bufs] registry list is only \
   consed under [mutex] at shard creation and read at export time"]

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

(* 16K events per domain; the ring wraps, keeping the newest events. *)
let ring_bits = 14
let capacity = 1 lsl ring_bits
let mask = capacity - 1

type buf = {
  dom : int;
  ts : int array;
  kinds : Bytes.t;
  names : string array;
  mutable len : int; (* total events ever recorded; ring index is [len land mask] *)
}

let mutex = Mutex.create ()
let bufs : buf list ref = ref []

let buf_key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          dom = (Domain.self () :> int);
          ts = Array.make capacity 0;
          kinds = Bytes.make capacity '\000';
          names = Array.make capacity "";
          len = 0;
        }
      in
      Mutex.lock mutex;
      bufs := b :: !bufs;
      Mutex.unlock mutex;
      b)

(* [i = len land mask] with [mask = capacity - 1] and all three buffers
   allocated at [capacity] in [buf_key]'s initializer. *)
let[@nldl.bounds_validated "Trace.buf_key"] record kind name =
  let b = Domain.DLS.get buf_key in
  let i = b.len land mask in
  Array.unsafe_set b.ts i (Clock.now_ns ());
  Bytes.unsafe_set b.kinds i (Char.unsafe_chr kind);
  Array.unsafe_set b.names i name;
  b.len <- b.len + 1

let begin_span name = if Atomic.get enabled_flag then record 0 name
let end_span name = if Atomic.get enabled_flag then record 1 name
let instant name = if Atomic.get enabled_flag then record 2 name

(* --- collection -------------------------------------------------------- *)

type kind = Begin | End | Instant
type event = { domain : int; ts_ns : int; kind : kind; name : string }

let decode_kind = function 0 -> Begin | 1 -> End | _ -> Instant

let events () =
  Mutex.lock mutex;
  let per_buf =
    List.rev_map
      (fun b ->
        let total = b.len in
        let first = max 0 (total - capacity) in
        List.init (total - first) (fun j ->
            let idx = (first + j) land mask in
            {
              domain = b.dom;
              ts_ns = b.ts.(idx);
              kind = decode_kind (Char.code (Bytes.get b.kinds idx));
              name = b.names.(idx);
            }))
      !bufs
  in
  Mutex.unlock mutex;
  (* Stable sort on the shared clock: per-domain recording order is
     preserved for equal timestamps. *)
  List.stable_sort
    (fun a b -> compare a.ts_ns b.ts_ns)
    (List.concat per_buf)

let dropped () =
  Mutex.lock mutex;
  let d = List.fold_left (fun acc b -> acc + max 0 (b.len - capacity)) 0 !bufs in
  Mutex.unlock mutex;
  d

let dropped_by_domain () =
  Mutex.lock mutex;
  let l = List.rev_map (fun b -> (b.dom, max 0 (b.len - capacity))) !bufs in
  Mutex.unlock mutex;
  List.sort compare l

let recorded () =
  Mutex.lock mutex;
  let n = List.fold_left (fun acc b -> acc + b.len) 0 !bufs in
  Mutex.unlock mutex;
  n

let clear () =
  Mutex.lock mutex;
  List.iter (fun b -> b.len <- 0) !bufs;
  Mutex.unlock mutex
