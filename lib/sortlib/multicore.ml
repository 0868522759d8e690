module Rng = Numerics.Rng
module Scatter = Kernels.Scatter
module Seg_sort = Kernels.Seg_sort

let resolve_domains = function Some d -> max 1 d | None -> Exec.Pool.default_domains ()

(* A top-level function rather than a local closure, so the lint's
   parallel-escape analysis sees what the pool runs. *)
let sort_bucket flat b =
  Seg_sort.sort_floats flat.Scatter.data ~lo:(Scatter.bucket_lo flat b)
    ~len:(Scatter.bucket_len flat b)

let sort ?domains ?s rng keys ~p =
  if p < 1 then invalid_arg "Multicore.sort: p must be >= 1";
  let n = Array.length keys in
  if n = 0 then [||]
  else if p = 1 then begin
    let out = Array.copy keys in
    Seg_sort.sort_floats out ~lo:0 ~len:n;
    out
  end
  else begin
    let s = match s with Some s -> s | None -> Sample_sort.default_oversampling ~n in
    let splitters = Sample_sort.choose_splitters_floats rng keys ~p ~s in
    let d = resolve_domains domains in
    let pool = if d <= 1 then None else Some (Exec.Pool.get_global ~at_least:d ()) in
    (* Phase 2 through the counting scatter kernel: stable, so the pool
       variant is byte-identical to the sequential one at any domain
       count. *)
    Obs.Trace.begin_span "multicore.partition";
    let flat =
      match pool with
      | None -> Scatter.partition_floats keys ~splitters
      | Some pool -> Scatter.partition_floats_pool ~workers:d pool keys ~splitters
    in
    Obs.Trace.end_span "multicore.partition";
    (* Phase 3 in parallel on the same pool: bucket segments are disjoint
       slices of [flat.data], so sorting them from different domains is
       race-free — and the flat array is already in bucket order, so no
       final concat.  [bucket_lo]/[bucket_len] rather than a shared slice
       record: [sort_bucket] runs concurrently on several domains. *)
    Obs.Trace.begin_span "multicore.bucket_sort";
    (match pool with
    | None ->
        for b = 0 to Scatter.num_buckets flat - 1 do
          sort_bucket flat b
        done
    | Some pool ->
        Exec.Pool.parallel_for ~workers:d pool (Scatter.num_buckets flat) (sort_bucket flat));
    Obs.Trace.end_span "multicore.bucket_sort";
    flat.Scatter.data
  end

(* Monotonic clock (ns): wall-clock [Unix.gettimeofday] is subject to
   NTP slew and skews the reported speedup on loaded hosts.
   [Obs.Clock] wraps the same noalloc primitive the bench harness
   uses. *)
let time = Obs.Clock.elapsed_s

let median samples =
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  sorted.(Array.length sorted / 2)

let speedup ?domains ?(trials = 3) rng ~n ~p =
  if trials < 1 then invalid_arg "Multicore.speedup: trials must be >= 1";
  let keys = Array.init n (fun _ -> Rng.float rng) in
  (* Warm the shared pool so the parallel runs are not charged the
     one-off domain-spawn cost. *)
  let d = resolve_domains domains in
  Exec.Pool.warm_up ~workers:d (Exec.Pool.get_global ~at_least:d ());
  (* One untimed warm-up of each variant (cold caches would otherwise
     penalize whichever variant runs first), then interleaved trials so
     drift — thermal, competing load — hits both variants equally. *)
  ignore (sort ~domains:1 (Rng.copy rng) keys ~p);
  ignore (sort ?domains (Rng.copy rng) keys ~p);
  let seq = Array.make trials 0. and par = Array.make trials 0. in
  for t = 0 to trials - 1 do
    let _, s = time (fun () -> sort ~domains:1 (Rng.copy rng) keys ~p) in
    seq.(t) <- s;
    let _, q = time (fun () -> sort ?domains (Rng.copy rng) keys ~p) in
    par.(t) <- q
  done;
  let sequential = median seq and parallel = median par in
  (sequential, parallel, sequential /. parallel)
