(* The MapReduce runtime: scheduler policies, speculation, shuffle, the
   engine, and the ready-made jobs. *)

module Task = Mapreduce.Task
module Scheduler = Mapreduce.Scheduler
module Shuffle = Mapreduce.Shuffle
module Engine = Mapreduce.Engine
module Jobs = Mapreduce.Jobs
module Star = Platform.Star
module Rng = Numerics.Rng

let checkb = Alcotest.(check bool)
let checkf msg ?(eps = 1e-9) expected actual =
  Alcotest.(check (float eps)) msg expected actual

let unit_block _ = 1.

let simple_tasks n =
  Array.init n (fun i -> Task.make ~id:i ~data_ids:[| i |] ~cost:1.)

let test_all_tasks_complete () =
  let star = Star.of_speeds [ 1.; 2. ] in
  let outcome = Scheduler.run star ~tasks:(simple_tasks 20) ~block_size:unit_block in
  Array.iter (fun c -> checkb "finite completion" true (Float.is_finite c))
    outcome.Scheduler.completion;
  Array.iter (fun w -> checkb "winner assigned" true (w >= 0)) outcome.Scheduler.winner

let test_empty_task_list () =
  let star = Star.of_speeds [ 1. ] in
  let outcome = Scheduler.run star ~tasks:[||] ~block_size:unit_block in
  checkf "zero makespan" 0. outcome.Scheduler.makespan;
  Alcotest.(check int) "no assignments" 0 (List.length outcome.Scheduler.assignments)

let test_single_worker_sequential () =
  let star = Star.of_speeds ~bandwidth:1. [ 1. ] in
  let outcome = Scheduler.run star ~tasks:(simple_tasks 5) ~block_size:unit_block in
  (* Each task: 1 data unit then 1 work unit: makespan 10. *)
  checkf "sequential makespan" 10. outcome.Scheduler.makespan

let test_fifo_order_on_single_worker () =
  let star = Star.of_speeds [ 1. ] in
  let outcome = Scheduler.run star ~tasks:(simple_tasks 5) ~block_size:unit_block in
  let order = List.map (fun a -> a.Scheduler.task) outcome.Scheduler.assignments in
  Alcotest.(check (list int)) "submission order" [ 0; 1; 2; 3; 4 ] order

let test_faster_worker_takes_more () =
  (* Compute-bound tasks (cost 9 vs 1 data unit) so that the 9x faster
     worker indeed finishes tasks ~5x quicker. *)
  let star = Star.of_speeds [ 1.; 9. ] in
  let tasks = Array.init 60 (fun i -> Task.make ~id:i ~data_ids:[| i |] ~cost:9.) in
  let outcome = Scheduler.run star ~tasks ~block_size:unit_block in
  checkb "fast worker dominates" true
    (outcome.Scheduler.per_worker_tasks.(1) > 3 * outcome.Scheduler.per_worker_tasks.(0))

let test_cache_avoids_refetch () =
  (* Two tasks sharing a block: the second fetch is free on the same
     worker. *)
  let star = Star.of_speeds [ 1. ] in
  let tasks =
    [| Task.make ~id:0 ~data_ids:[| 7 |] ~cost:1.; Task.make ~id:1 ~data_ids:[| 7 |] ~cost:1. |]
  in
  let outcome = Scheduler.run star ~tasks ~block_size:(fun _ -> 10.) in
  checkf "one fetch only" 10. outcome.Scheduler.communication

let test_affinity_prefers_cached () =
  (* Worker caches block 0 via task 0; under affinity it should then
     prefer task 2 (same block) over task 1. *)
  let star = Star.of_speeds [ 1. ] in
  let tasks =
    [|
      Task.make ~id:0 ~data_ids:[| 0 |] ~cost:1.;
      Task.make ~id:1 ~data_ids:[| 1 |] ~cost:1.;
      Task.make ~id:2 ~data_ids:[| 0 |] ~cost:1.;
    |]
  in
  let config = { Scheduler.default_config with policy = Scheduler.Affinity } in
  let outcome = Scheduler.run ~config star ~tasks ~block_size:(fun _ -> 5.) in
  let order = List.map (fun a -> a.Scheduler.task) outcome.Scheduler.assignments in
  Alcotest.(check (list int)) "affinity order" [ 0; 2; 1 ] order

let test_affinity_reduces_comm () =
  (* Many tasks over few shared blocks on a heterogeneous platform. *)
  let rng = Rng.create ~seed:51 () in
  let star = Platform.Profiles.generate rng ~p:4 Platform.Profiles.paper_uniform in
  let tasks =
    Array.init 64 (fun i -> Task.make ~id:i ~data_ids:[| i mod 8; 8 + (i / 8) |] ~cost:4.)
  in
  let run policy =
    (Scheduler.run ~config:{ Scheduler.default_config with policy } star ~tasks
       ~block_size:(fun _ -> 3.))
      .Scheduler.communication
  in
  checkb "affinity <= fifo" true (run Scheduler.Affinity <= run Scheduler.Fifo +. 1e-9)

let test_speculation_duplicates_straggler () =
  (* A slow worker grabs the last task; with speculation the fast worker
     re-executes it and wins. *)
  let star = Star.of_speeds [ 0.05; 10. ] in
  let tasks = simple_tasks 3 in
  let plain = Scheduler.run star ~tasks ~block_size:unit_block in
  let spec =
    Scheduler.run
      ~config:{ Scheduler.default_config with speculation = Scheduler.At_idle }
      star ~tasks ~block_size:unit_block
  in
  checkb "speculation launched" true (spec.Scheduler.duplicates > 0);
  checkb "speculation helps makespan" true
    (spec.Scheduler.makespan < plain.Scheduler.makespan)

let test_speculation_never_hurts_completion () =
  let rng = Rng.create ~seed:52 () in
  let star = Platform.Profiles.generate rng ~p:4 Platform.Profiles.paper_lognormal in
  let tasks = simple_tasks 10 in
  let plain = Scheduler.run star ~tasks ~block_size:unit_block in
  let spec =
    Scheduler.run
      ~config:{ Scheduler.default_config with speculation = Scheduler.At_idle }
      star ~tasks ~block_size:unit_block
  in
  checkb "makespan not worse" true
    (spec.Scheduler.makespan <= plain.Scheduler.makespan +. 1e-9)

let qcheck_scheduler_conservation =
  QCheck.Test.make ~name:"scheduler: copies cover all tasks exactly once without speculation"
    ~count:100
    QCheck.(pair (list_of_size Gen.(int_range 1 6) (float_range 0.2 8.)) (int_range 0 40))
    (fun (speeds, n_tasks) ->
      let star = Star.of_speeds speeds in
      let outcome = Scheduler.run star ~tasks:(simple_tasks n_tasks) ~block_size:unit_block in
      Array.fold_left ( + ) 0 outcome.Scheduler.per_worker_tasks = n_tasks
      && outcome.Scheduler.duplicates = 0)

(* --- shuffle --- *)

let test_shuffle_groups_and_reduces () =
  let star = Star.of_speeds [ 1.; 1. ] in
  let pairs = [ ("a", 1, 0); ("b", 2, 0); ("a", 3, 1) ] in
  let output, stats = Shuffle.run star ~pairs ~reduce:(fun _ vs -> List.fold_left ( + ) 0 vs) in
  let sorted = List.sort compare output in
  Alcotest.(check (list (pair string int))) "reduced" [ ("a", 4); ("b", 2) ] sorted;
  Alcotest.(check int) "pair count" 3 stats.Shuffle.pairs

let test_shuffle_local_pairs_free () =
  let star = Star.of_speeds [ 1.; 1. ] in
  let key = "k" in
  let home = Shuffle.placement ~p:2 key in
  let pairs = [ (key, 1, home); (key, 2, home) ] in
  let _, stats = Shuffle.run star ~pairs ~reduce:(fun _ vs -> List.fold_left ( + ) 0 vs) in
  checkf "no remote volume" 0. stats.Shuffle.volume

let test_shuffle_value_order_preserved () =
  let star = Star.of_speeds [ 1. ] in
  let pairs = [ ("k", 1, 0); ("k", 2, 0); ("k", 3, 0) ] in
  let output, _ = Shuffle.run star ~pairs ~reduce:(fun _ vs -> List.hd vs) in
  Alcotest.(check (list (pair string int))) "first value wins" [ ("k", 1) ] output

(* --- engine + jobs --- *)

let test_word_count () =
  let docs = [| "the cat sat"; "the dog"; "cat" |] in
  let star = Star.of_speeds [ 1.; 2. ] in
  let job = Word_count.job ~docs in
  let result = Engine.run star job ~reduce:(fun _ vs -> List.fold_left ( + ) 0 vs) in
  let counts = List.sort compare result.Engine.output in
  Alcotest.(check (list (pair string int)))
    "word counts"
    [ ("cat", 2); ("dog", 1); ("sat", 1); ("the", 2) ]
    counts

let test_outer_product_job_correct () =
  let rng = Rng.create ~seed:53 () in
  let n = 32 in
  let a = Array.init n (fun _ -> Rng.uniform rng (-1.) 1.) in
  let b = Array.init n (fun _ -> Rng.uniform rng (-1.) 1.) in
  let star = Star.of_speeds [ 1.; 3. ] in
  let job = Jobs.outer_product ~a ~b ~chunk:8 in
  let result = Engine.run star job ~reduce:(fun _ vs -> List.fold_left ( +. ) 0. vs) in
  checkb "n² pairs" true (List.length result.Engine.output = n * n);
  List.iter
    (fun ((i, j), v) -> checkf "product" ~eps:1e-12 (a.(i) *. b.(j)) v)
    result.Engine.output

let test_matmul_replicated_correct () =
  let rng = Rng.create ~seed:54 () in
  let n = 8 in
  let a = Linalg.Matrix.random rng ~rows:n ~cols:n in
  let b = Linalg.Matrix.random rng ~rows:n ~cols:n in
  let star = Star.of_speeds [ 1.; 2.; 3. ] in
  let job =
    Jobs.matmul_replicated ~a:(Linalg.Matrix.get a) ~b:(Linalg.Matrix.get b) ~n ~chunk:2
  in
  let result = Engine.run star job ~reduce:(fun _ vs -> List.fold_left ( +. ) 0. vs) in
  let reference = Linalg.Matrix.mul a b in
  Alcotest.(check int) "n² outputs" (n * n) (List.length result.Engine.output);
  List.iter
    (fun ((i, j), v) -> checkf "C(i,j)" ~eps:1e-9 (Linalg.Matrix.get reference i j) v)
    result.Engine.output

let test_replication_factor () =
  checkf "n/chunk" 4. (Jobs.replication_factor ~n:32 ~chunk:8)

let test_job_chunk_validation () =
  checkb "bad chunk rejected" true
    (try
       ignore (Jobs.outer_product ~a:[| 1.; 2.; 3. |] ~b:[| 1.; 2.; 3. |] ~chunk:2);
       false
     with Invalid_argument _ -> true)

let test_engine_id_validation () =
  let star = Star.of_speeds [ 1. ] in
  let bad =
    {
      Engine.tasks = [| Task.make ~id:5 ~data_ids:[| 0 |] ~cost:1. |];
      execute = (fun _ -> []);
      block_size = unit_block;
    }
  in
  checkb "bad ids rejected" true
    (try
       ignore (Engine.run star bad ~reduce:(fun _ v -> List.hd v));
       false
     with Invalid_argument _ -> true)

let suites =
  [
    ( "mapreduce scheduler",
      [
        Alcotest.test_case "all tasks complete" `Quick test_all_tasks_complete;
        Alcotest.test_case "empty job" `Quick test_empty_task_list;
        Alcotest.test_case "single worker" `Quick test_single_worker_sequential;
        Alcotest.test_case "fifo order" `Quick test_fifo_order_on_single_worker;
        Alcotest.test_case "faster takes more" `Quick test_faster_worker_takes_more;
        Alcotest.test_case "cache avoids refetch" `Quick test_cache_avoids_refetch;
        Alcotest.test_case "affinity prefers cached" `Quick test_affinity_prefers_cached;
        Alcotest.test_case "affinity reduces comm" `Quick test_affinity_reduces_comm;
        Alcotest.test_case "speculation duplicates straggler" `Quick
          test_speculation_duplicates_straggler;
        Alcotest.test_case "speculation never hurts" `Quick
          test_speculation_never_hurts_completion;
        QCheck_alcotest.to_alcotest qcheck_scheduler_conservation;
      ] );
    ( "shuffle",
      [
        Alcotest.test_case "groups and reduces" `Quick test_shuffle_groups_and_reduces;
        Alcotest.test_case "local pairs free" `Quick test_shuffle_local_pairs_free;
        Alcotest.test_case "value order preserved" `Quick test_shuffle_value_order_preserved;
      ] );
    ( "mapreduce jobs",
      [
        Alcotest.test_case "word count" `Quick test_word_count;
        Alcotest.test_case "outer product job" `Quick test_outer_product_job_correct;
        Alcotest.test_case "replicated matmul" `Quick test_matmul_replicated_correct;
        Alcotest.test_case "replication factor" `Quick test_replication_factor;
        Alcotest.test_case "chunk validation" `Quick test_job_chunk_validation;
        Alcotest.test_case "task id validation" `Quick test_engine_id_validation;
      ] );
  ]
