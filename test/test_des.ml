(* Discrete-event simulation core: event queue, engine, trace. *)

module Engine = Des.Engine
module Trace = Des.Trace

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_queue_order () =
  let q = Event_queue.create () in
  List.iter (fun (p, v) -> Event_queue.push q ~priority:p v)
    [ (3., "c"); (1., "a"); (2., "b") ];
  let popped = List.init 3 (fun _ -> Event_queue.pop q) in
  Alcotest.(check (list (option (pair (float 0.) string))))
    "ascending priorities"
    [ Some (1., "a"); Some (2., "b"); Some (3., "c") ]
    popped

let test_queue_fifo_ties () =
  let q = Event_queue.create () in
  List.iter (fun v -> Event_queue.push q ~priority:1. v) [ 1; 2; 3; 4 ];
  let order = List.init 4 (fun _ -> match Event_queue.pop q with Some (_, v) -> v | None -> -1) in
  Alcotest.(check (list int)) "FIFO within a timestamp" [ 1; 2; 3; 4 ] order

let test_queue_empty () =
  let q : int Event_queue.t = Event_queue.create () in
  checkb "empty" true (Event_queue.is_empty q);
  checkb "pop none" true (Event_queue.pop q = None);
  checkb "peek none" true (Event_queue.peek q = None)

let test_queue_peek () =
  let q = Event_queue.create () in
  Event_queue.push q ~priority:5. "x";
  Event_queue.push q ~priority:2. "y";
  checkb "peek min" true (Event_queue.peek q = Some (2., "y"));
  Alcotest.(check int) "peek does not remove" 2 (Event_queue.size q)

let test_queue_growth () =
  let q = Event_queue.create ~initial_capacity:1 () in
  for i = 0 to 999 do
    Event_queue.push q ~priority:(float_of_int (999 - i)) i
  done;
  Alcotest.(check int) "size" 1000 (Event_queue.size q);
  let first = Event_queue.pop q in
  checkb "min first" true (first = Some (0., 999))

let test_queue_nan () =
  let q = Event_queue.create () in
  Alcotest.check_raises "nan rejected" (Invalid_argument "Event_queue.push: NaN priority")
    (fun () -> Event_queue.push q ~priority:Float.nan 0)

let test_queue_clear () =
  let q = Event_queue.create () in
  Event_queue.push q ~priority:1. 1;
  Event_queue.clear q;
  checkb "cleared" true (Event_queue.is_empty q)

let test_queue_snapshot () =
  let q = Event_queue.create () in
  List.iter (fun (p, v) -> Event_queue.push q ~priority:p v) [ (2., 20); (1., 10) ];
  Alcotest.(check (list (pair (float 0.) int)))
    "sorted snapshot" [ (1., 10); (2., 20) ] (Event_queue.to_sorted_list q);
  Alcotest.(check int) "snapshot non-destructive" 2 (Event_queue.size q)

let qcheck_queue_sorted =
  QCheck.Test.make ~name:"event queue pops in sorted order" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 200) (float_range 0. 1000.))
    (fun priorities ->
      let q = Event_queue.create () in
      List.iteri (fun i p -> Event_queue.push q ~priority:p i) priorities;
      let rec drain acc =
        match Event_queue.pop q with
        | None -> List.rev acc
        | Some (p, _) -> drain (p :: acc)
      in
      let popped = drain [] in
      popped = List.sort Float.compare priorities)

module Event_heap = Des.Event_heap

(* Drain the heap into (priority, payload) pairs, reading the priority
   before each pop as the API prescribes. *)
let drain_heap h =
  let rec loop acc =
    if Event_heap.is_empty h then List.rev acc
    else
      let p = Event_heap.min_priority h in
      let v = Event_heap.pop h in
      loop ((p, v) :: acc)
  in
  loop []

let test_heap_matches_queue_oracle () =
  (* Same pushes into both structures; the boxed queue's snapshot is the
     ordering oracle, equal-priority FIFO included. *)
  let q = Event_queue.create () in
  let h = Event_heap.create () in
  let rng = ref 123456789 in
  let next () =
    rng := (!rng * 1103515245) + 12345;
    (!rng lsr 11) land 0xFFFF
  in
  for i = 0 to 999 do
    (* few distinct priorities, so ties are common *)
    let p = float_of_int (next () mod 17) in
    Event_queue.push q ~priority:p i;
    Event_heap.push h ~priority:p i
  done;
  let expected = Event_queue.to_sorted_list q in
  Alcotest.(check (list (pair (float 0.) int)))
    "heap pop order = queue oracle" expected (drain_heap h)

let qcheck_heap_sorted =
  QCheck.Test.make ~name:"event heap pops in oracle order" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 200) (float_range 0. 50.))
    (fun priorities ->
      let q = Event_queue.create () in
      let h = Event_heap.create ~initial_capacity:1 () in
      List.iteri
        (fun i p ->
          Event_queue.push q ~priority:p i;
          Event_heap.push h ~priority:p i)
        priorities;
      drain_heap h = Event_queue.to_sorted_list q)

let test_heap_fifo_ties () =
  let h = Event_heap.create () in
  List.iter (fun v -> Event_heap.push h ~priority:1. v) [ 1; 2; 3; 4 ];
  let order = List.map snd (drain_heap h) in
  Alcotest.(check (list int)) "FIFO within a timestamp" [ 1; 2; 3; 4 ] order

let test_heap_growth () =
  let h = Event_heap.create ~initial_capacity:4 () in
  for i = 0 to 99 do
    Event_heap.push h ~priority:(float_of_int (99 - i)) i
  done;
  Alcotest.(check int) "size" 100 (Event_heap.size h);
  Alcotest.(check (list (pair (float 0.) int)))
    "order survives growth"
    (List.init 100 (fun k -> (float_of_int k, 99 - k)))
    (drain_heap h)

let test_heap_nan () =
  let h = Event_heap.create () in
  Alcotest.check_raises "nan rejected" (Invalid_argument "Event_heap.push: NaN priority")
    (fun () -> Event_heap.push h ~priority:Float.nan 0)

let test_heap_empty_pop () =
  let h = Event_heap.create () in
  checkb "empty" true (Event_heap.is_empty h);
  Alcotest.check_raises "pop on empty" (Invalid_argument "Event_heap.pop: empty heap")
    (fun () -> ignore (Event_heap.pop h))

let test_heap_high_water () =
  let h = Event_heap.create ~initial_capacity:4 () in
  checki "starts at zero" 0 (Event_heap.high_water h);
  for i = 0 to 9 do
    Event_heap.push h ~priority:(float_of_int i) i
  done;
  for _ = 1 to 5 do
    ignore (Event_heap.pop h)
  done;
  Event_heap.push h ~priority:99. 42;
  checki "peak size, not current" 10 (Event_heap.high_water h);
  checki "current size below peak" 6 (Event_heap.size h)

let minor_words_of f =
  Gc.full_major ();
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_heap_zero_alloc () =
  (* Steady-state push+pop at fixed capacity: zero minor words per op.
     [exercise] drives the loop from inside the module, so the proof
     holds in dev-profile builds too (dune's [-opaque] disables the
     cross-module inlining that unboxes [push]'s float argument; see
     the cross-module test below for that path). *)
  let h = Event_heap.create ~initial_capacity:4096 () in
  Event_heap.exercise h ~rounds:1 ~batch:2048;
  let words = minor_words_of (fun () -> Event_heap.exercise h ~rounds:4 ~batch:2048) in
  Alcotest.(check (float 0.)) "0 minor words for 8192 push + 8192 pop" 0. words

let test_heap_cross_module_alloc_bound () =
  (* The out-of-module call path: zero in release builds, at most the
     one boxed float argument per push (2 words) under dev's [-opaque].
     Anything above that means the heap itself started allocating. *)
  let h = Event_heap.create ~initial_capacity:4096 () in
  let ops = 2048 in
  let churn () =
    for i = 0 to ops - 1 do
      Event_heap.push h ~priority:(float_of_int ((i * 7919) land 1023)) i
    done;
    for _ = 1 to ops do
      ignore (Event_heap.pop h)
    done
  in
  churn ();
  let words = minor_words_of churn in
  checkb "at most one float box per push" true (words <= float_of_int (2 * ops))

let test_engine_order () =
  let engine = Engine.create () in
  let log = ref [] in
  Engine.schedule engine ~time:2. (fun _ -> log := "b" :: !log);
  Engine.schedule engine ~time:1. (fun _ -> log := "a" :: !log);
  Engine.schedule engine ~time:3. (fun _ -> log := "c" :: !log);
  Engine.run engine;
  Alcotest.(check (list string)) "handlers in time order" [ "a"; "b"; "c" ] (List.rev !log)

let test_engine_now_advances () =
  let engine = Engine.create () in
  let seen = ref 0. in
  Engine.schedule engine ~time:5. (fun e -> seen := Engine.now e);
  Engine.run engine;
  Alcotest.(check (float 0.)) "now at handler time" 5. !seen

let test_engine_cascade () =
  let engine = Engine.create () in
  let count = ref 0 in
  let rec tick e =
    incr count;
    if !count < 10 then Engine.schedule_after e ~delay:1. tick
  in
  Engine.schedule engine ~time:0. tick;
  Engine.run engine;
  Alcotest.(check int) "cascaded events" 10 !count;
  Alcotest.(check (float 0.)) "final time" 9. (Engine.now engine)

let test_engine_causality () =
  let engine = Engine.create () in
  Engine.schedule engine ~time:10. (fun e ->
      try
        Engine.schedule e ~time:5. (fun _ -> ());
        Alcotest.fail "expected Causality"
      with Engine.Causality _ -> ());
  Engine.run engine

let test_engine_horizon () =
  let engine = Engine.create () in
  let fired = ref [] in
  List.iter
    (fun t -> Engine.schedule engine ~time:t (fun _ -> fired := t :: !fired))
    [ 1.; 2.; 3.; 4. ];
  Engine.run ~until:2.5 engine;
  Alcotest.(check (list (float 0.))) "only before horizon" [ 1.; 2. ] (List.rev !fired);
  Engine.run engine;
  Alcotest.(check (list (float 0.))) "rest still queued" [ 1.; 2.; 3.; 4. ] (List.rev !fired)

let test_trace_accounting () =
  let trace = Trace.create () in
  Trace.record trace ~resource:"w1" ~start:0. ~finish:2. ~label:"a";
  Trace.record trace ~resource:"w1" ~start:3. ~finish:4. ~label:"b";
  Trace.record trace ~resource:"w2" ~start:0. ~finish:1. ~label:"c";
  Alcotest.(check (list string)) "resources" [ "w1"; "w2" ] (Trace.resources trace);
  Alcotest.(check (float 1e-9)) "makespan" 4. (Trace.makespan trace)

let test_trace_bad_interval () =
  let trace = Trace.create () in
  Alcotest.check_raises "finish < start" (Invalid_argument "Trace.record: finish < start")
    (fun () -> Trace.record trace ~resource:"w" ~start:2. ~finish:1. ~label:"x")

let test_trace_gantt () =
  let trace = Trace.create () in
  Trace.record trace ~resource:"w1" ~start:0. ~finish:1. ~label:"x";
  let gantt = Trace.render_gantt trace in
  checkb "gantt mentions resource" true
    (String.length gantt > 0
    &&
    let lines = String.split_on_char '\n' gantt in
    List.exists (fun l -> String.length l >= 2 && l.[0] = 'w') lines)

(* Equal-finish schedules end every bar at the makespan, give or take
   rounding: bars a few ulps short must still reach the last column,
   while a bar ending a column earlier must not. *)
let test_trace_gantt_equal_finish () =
  let trace = Trace.create () in
  let horizon = 19224.6 in
  let finishes =
    [
      ("exact", horizon);
      ("ulp", Float.pred horizon);
      ("ulps", Float.pred (Float.pred (Float.pred horizon)));
      ("rel", horizon *. (1. -. 1e-13));
      ("short", horizon *. (70. /. 71.));
    ]
  in
  List.iter
    (fun (resource, finish) -> Trace.record trace ~resource ~start:0. ~finish ~label:"x")
    finishes;
  let rows =
    List.filter
      (fun l -> String.contains l '|')
      (String.split_on_char '\n' (Trace.render_gantt trace))
  in
  checki "one row per resource" (List.length finishes) (List.length rows);
  List.iter
    (fun row ->
      let name = List.hd (String.split_on_char ' ' row) in
      let last = row.[String.rindex row '|' - 1] in
      checkb (name ^ " reaches the last column") (name <> "short") (last = 'x'))
    rows

let suites =
  [
    ( "event queue",
      [
        Alcotest.test_case "ordering" `Quick test_queue_order;
        Alcotest.test_case "FIFO ties" `Quick test_queue_fifo_ties;
        Alcotest.test_case "empty" `Quick test_queue_empty;
        Alcotest.test_case "peek" `Quick test_queue_peek;
        Alcotest.test_case "growth" `Quick test_queue_growth;
        Alcotest.test_case "NaN rejected" `Quick test_queue_nan;
        Alcotest.test_case "clear" `Quick test_queue_clear;
        Alcotest.test_case "snapshot" `Quick test_queue_snapshot;
        QCheck_alcotest.to_alcotest qcheck_queue_sorted;
      ] );
    ( "event heap",
      [
        Alcotest.test_case "matches queue oracle" `Quick test_heap_matches_queue_oracle;
        QCheck_alcotest.to_alcotest qcheck_heap_sorted;
        Alcotest.test_case "FIFO ties" `Quick test_heap_fifo_ties;
        Alcotest.test_case "growth" `Quick test_heap_growth;
        Alcotest.test_case "NaN rejected" `Quick test_heap_nan;
        Alcotest.test_case "pop on empty" `Quick test_heap_empty_pop;
        Alcotest.test_case "high-water mark" `Quick test_heap_high_water;
        Alcotest.test_case "zero allocation" `Quick test_heap_zero_alloc;
        Alcotest.test_case "cross-module allocation bound" `Quick
          test_heap_cross_module_alloc_bound;
      ] );
    ( "engine",
      [
        Alcotest.test_case "handler order" `Quick test_engine_order;
        Alcotest.test_case "now advances" `Quick test_engine_now_advances;
        Alcotest.test_case "cascade" `Quick test_engine_cascade;
        Alcotest.test_case "causality" `Quick test_engine_causality;
        Alcotest.test_case "horizon" `Quick test_engine_horizon;
      ] );
    ( "trace",
      [
        Alcotest.test_case "accounting" `Quick test_trace_accounting;
        Alcotest.test_case "bad interval" `Quick test_trace_bad_interval;
        Alcotest.test_case "gantt render" `Quick test_trace_gantt;
        Alcotest.test_case "gantt equal-finish bars" `Quick test_trace_gantt_equal_finish;
      ] );
  ]
