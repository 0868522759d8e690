(* Execution layer: the persistent domain pool (Exec.Pool) and the
   deterministic parallel experiment harness built on it. *)

module Pool = Exec.Pool
module Parallel = Numerics.Parallel
module Rng = Numerics.Rng
module Matrix = Linalg.Matrix

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let with_pool ~domains f =
  let pool = Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Pool.teardown pool) (fun () -> f pool)

let test_pool_covers () =
  with_pool ~domains:4 (fun pool ->
      let n = 1_000 in
      let hits = Array.make n 0 in
      Pool.parallel_for pool n (fun i -> hits.(i) <- hits.(i) + 1);
      checkb "each index exactly once" true (Array.for_all (fun h -> h = 1) hits))

let test_pool_reuse () =
  (* Many submissions through the same workers: the point of persistence. *)
  with_pool ~domains:4 (fun pool ->
      let n = 64 in
      let total = ref 0 in
      for _ = 1 to 200 do
        let hits = Array.make n 0 in
        Pool.parallel_for pool n (fun i -> hits.(i) <- hits.(i) + 1);
        total := !total + Array.fold_left ( + ) 0 hits
      done;
      checki "200 submissions all complete" (200 * n) !total)

let test_pool_uneven_chunks () =
  (* Uneven per-index cost with a tiny chunk: the dynamic scheduler must
     still cover every index exactly once. *)
  with_pool ~domains:3 (fun pool ->
      let n = 101 in
      let hits = Array.make n 0 in
      Pool.parallel_for ~chunk:2 pool n (fun i ->
          if i mod 10 = 0 then ignore (Array.init 10_000 (fun j -> j * j));
          hits.(i) <- hits.(i) + 1);
      checkb "covered" true (Array.for_all (fun h -> h = 1) hits))

let test_pool_single_domain_fallback () =
  (* domains:1 never spawns: every body runs on the calling domain. *)
  let caller = Domain.self () in
  with_pool ~domains:1 (fun pool ->
      let ok = ref true in
      Pool.parallel_for pool 100 (fun _ -> if Domain.self () <> caller then ok := false);
      checkb "all on caller" true !ok);
  let ok = ref true in
  Parallel.parallel_for ~domains:1 100 (fun _ ->
      if Domain.self () <> caller then ok := false);
  checkb "facade domains:1 on caller" true !ok

let test_pool_workers_cap () =
  (* workers:1 on a big pool is the sequential fallback too. *)
  let caller = Domain.self () in
  with_pool ~domains:4 (fun pool ->
      let ok = ref true in
      Pool.parallel_for ~workers:1 pool 100 (fun _ ->
          if Domain.self () <> caller then ok := false);
      checkb "workers:1 stays on caller" true !ok)

exception Boom of int

let test_pool_exception_propagation () =
  with_pool ~domains:4 (fun pool ->
      (match Pool.parallel_for pool 1_000 (fun i -> if i = 617 then raise (Boom i)) with
      | () -> Alcotest.fail "expected exception"
      | exception Boom 617 -> ());
      (* The pool survives a failed submission. *)
      let hits = Array.make 100 0 in
      Pool.parallel_for pool 100 (fun i -> hits.(i) <- hits.(i) + 1);
      checkb "usable after failure" true (Array.for_all (fun h -> h = 1) hits))

let test_pool_nested_safety () =
  with_pool ~domains:4 (fun pool ->
      let n = 8 in
      let inner = Array.make (n * n) 0 in
      Pool.parallel_for pool n (fun i ->
          (* Nested submission on the same pool: must not deadlock. *)
          Pool.parallel_for pool n (fun j ->
              inner.((i * n) + j) <- inner.((i * n) + j) + 1));
      checkb "nested covers" true (Array.for_all (fun h -> h = 1) inner))

let test_pool_teardown_idempotent () =
  let pool = Pool.create ~domains:3 () in
  Pool.teardown pool;
  Pool.teardown pool;
  (* A torn-down pool degrades to sequential execution. *)
  let hits = Array.make 50 0 in
  Pool.parallel_for pool 50 (fun i -> hits.(i) <- hits.(i) + 1);
  checkb "sequential after teardown" true (Array.for_all (fun h -> h = 1) hits)

let test_pool_ensure_grows () =
  let pool = Pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Pool.teardown pool)
    (fun () ->
      checki "initial size" 2 (Pool.size pool);
      Pool.ensure pool ~domains:4;
      checki "grown size" 4 (Pool.size pool);
      let hits = Array.make 200 0 in
      Pool.parallel_for pool 200 (fun i -> hits.(i) <- hits.(i) + 1);
      checkb "covers after growth" true (Array.for_all (fun h -> h = 1) hits))

let test_pool_stats_consistent () =
  (* Counter consistency at forced domain counts (the host may expose a
     single CPU, so never detect).  Chunk geometry depends only on n,
     so the chunks claimed across all slots must equal the chunk count
     of each submission, whatever the domain count. *)
  let n = 1_000 and submissions = 5 in
  List.iter
    (fun domains ->
      with_pool ~domains (fun pool ->
          let s0 = Pool.stats pool in
          checki "fresh pool: no submissions" 0 s0.Pool.submissions;
          checki "stats slot per domain" domains (Array.length s0.Pool.per_domain);
          for _ = 1 to submissions do
            Pool.parallel_for ~chunk:16 pool n (fun _ -> ())
          done;
          let s = Pool.stats pool in
          checki "domains" domains s.Pool.domains;
          let chunk_count = (n + 15) / 16 in
          if domains = 1 then begin
            (* Sequential fallback: counted as such, never as parallel. *)
            checki "sequential runs" submissions s.Pool.sequential_runs;
            checki "no parallel submissions" 0 s.Pool.submissions
          end
          else begin
            checki "parallel submissions" submissions s.Pool.submissions;
            checki "no sequential runs" 0 s.Pool.sequential_runs;
            checki "nested runs" 0 s.Pool.nested_runs;
            let total_chunks =
              Array.fold_left (fun acc w -> acc + w.Pool.chunks) 0 s.Pool.per_domain
            in
            checki "chunks conserved" (submissions * chunk_count) total_chunks;
            checkb "submitter busy time counted" true
              (s.Pool.per_domain.(0).Pool.busy_ns > 0);
            checki "submitter task count" submissions s.Pool.per_domain.(0).Pool.tasks
          end))
    [ 1; 2; 3 ]

let test_pool_stats_nested_and_ensure () =
  with_pool ~domains:2 (fun pool ->
      Pool.parallel_for pool 8 (fun _ ->
          (* Nested submission: sequential on the calling domain. *)
          Pool.parallel_for pool 4 (fun _ -> ()));
      let s = Pool.stats pool in
      checki "outer submission parallel" 1 s.Pool.submissions;
      checki "nested counted" s.Pool.nested_runs s.Pool.sequential_runs;
      checkb "nested happened" true (s.Pool.nested_runs >= 1);
      (* ensure appends zeroed slots and preserves the existing ones. *)
      let before = Array.map (fun w -> w.Pool.chunks) s.Pool.per_domain in
      Pool.ensure pool ~domains:3;
      let s' = Pool.stats pool in
      checki "slot appended" 3 (Array.length s'.Pool.per_domain);
      checkb "existing counters preserved" true
        (Array.sub (Array.map (fun w -> w.Pool.chunks) s'.Pool.per_domain) 0 2 = before);
      checki "new slot zeroed" 0 s'.Pool.per_domain.(2).Pool.chunks)

let test_facade_determinism_sort () =
  let rng = Rng.create ~seed:2024 () in
  let keys = Array.init 20_000 (fun _ -> Rng.float rng) in
  let run domains = Sortlib.Multicore.sort ~domains (Rng.create ~seed:7 ()) keys ~p:8 in
  Alcotest.(check (array (float 0.))) "pool sort = sequential sort" (run 1) (run 4)

let test_facade_determinism_matmul () =
  let rng = Rng.create ~seed:2025 () in
  let a = Matrix.random rng ~rows:33 ~cols:29 in
  let b = Matrix.random rng ~rows:29 ~cols:31 in
  let seq = Linalg.Parallel_matmul.multiply ~domains:1 a b in
  let par = Linalg.Parallel_matmul.multiply ~domains:4 a b in
  (* Per-row bodies run the same sequential inner loops, so the results
     are bitwise identical, not just approximately equal. *)
  checkb "bitwise identical rows" true (Matrix.max_abs_diff seq par = 0.)

let test_fig4_point_deterministic () =
  let sweep domains =
    Experiments.Fig4.csv
      (Experiments.Fig4.sweep ~processor_counts:[ 10 ] ~trials:6 ~domains
         Platform.Profiles.paper_uniform)
  in
  checkb "fig4 csv identical across domain counts" true (sweep 1 = sweep 4)

let test_experiments_deterministic () =
  let general domains = Experiments.Ratio_exp.run_general ~trials:4 ~domains () in
  checkb "ratio_exp identical" true (general 1 = general 4);
  let time domains =
    Experiments.Time_exp.run ~p:8 ~trials:3 ~bandwidths:[ 10.; 1. ] ~domains
      Platform.Profiles.paper_uniform
  in
  checkb "time_exp identical" true (time 1 = time 4);
  let mr domains =
    Experiments.Mapreduce_exp.run ~n:64 ~chunk:8 ~processor_counts:[ 4 ] ~trials:2
      ~domains ()
  in
  checkb "mapreduce_exp identical" true (mr 1 = mr 4)

let suites =
  [
    ( "exec pool",
      [
        Alcotest.test_case "covers all indices" `Quick test_pool_covers;
        Alcotest.test_case "reuse across submissions" `Quick test_pool_reuse;
        Alcotest.test_case "uneven chunks" `Quick test_pool_uneven_chunks;
        Alcotest.test_case "domains:1 fallback" `Quick test_pool_single_domain_fallback;
        Alcotest.test_case "workers cap" `Quick test_pool_workers_cap;
        Alcotest.test_case "exception propagation" `Quick test_pool_exception_propagation;
        Alcotest.test_case "nested call safety" `Quick test_pool_nested_safety;
        Alcotest.test_case "teardown idempotent" `Quick test_pool_teardown_idempotent;
        Alcotest.test_case "ensure grows" `Quick test_pool_ensure_grows;
        Alcotest.test_case "stats consistent at 1/2/3 domains" `Quick
          test_pool_stats_consistent;
        Alcotest.test_case "stats: nested and ensure" `Quick
          test_pool_stats_nested_and_ensure;
      ] );
    ( "exec determinism",
      [
        Alcotest.test_case "multicore sort" `Quick test_facade_determinism_sort;
        Alcotest.test_case "parallel matmul" `Quick test_facade_determinism_matmul;
        Alcotest.test_case "fig4 point" `Quick test_fig4_point_deterministic;
        Alcotest.test_case "ratio/time/mapreduce" `Quick test_experiments_deterministic;
      ] );
  ]
