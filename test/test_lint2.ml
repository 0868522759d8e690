(* Interprocedural lint v2: callgraph resolution, parallel-escape
   fixpoint, R401/R402/R403 fixtures (trigger / non-trigger /
   suppression), driver robustness on degenerate inputs, the phase-1
   cache round-trip, and real-tree graph sanity.  Multi-file fixtures go
   through [Lint.Driver.lint_strings] / [analyze_strings] so no temp
   files are needed except for the cache tests. *)

let rules_of findings = List.map (fun (f : Lint.Finding.t) -> f.rule) findings
let has rule findings = List.mem rule (rules_of findings)

let fires rule units () =
  let fs = Lint.Driver.lint_strings units in
  Alcotest.(check bool) (rule ^ " fires") true (has rule fs)

let silent rule units () =
  let fs = Lint.Driver.lint_strings units in
  Alcotest.(check bool) (rule ^ " silent") false (has rule fs)

(* One node answering to [name], or fail the test. *)
let node_of g name =
  match Lint.Callgraph.find g name with
  | [ id ] -> id
  | ids ->
      Alcotest.failf "expected exactly one node for %s, got %d" name
        (List.length ids)

(* ------------------------------------------------------------------ *)
(* Callgraph: resolution across modules.                               *)

let state_ml = "let counter = ref 0\nlet bump () = counter := !counter + 1\n"

let callgraph =
  [
    Alcotest.test_case "qualified call resolves across files" `Quick (fun () ->
        let g, _, _ =
          Lint.Driver.analyze_strings
            [
              ("lib/fix/state.ml", state_ml);
              ("lib/fix/user.ml", "let tick () = Fix.State.bump ()\n");
            ]
        in
        let bump = node_of g "Fix.State.bump" in
        let tick = node_of g "Fix.User.tick" in
        Alcotest.(check bool)
          "tick -> bump edge" true
          (List.mem bump (Lint.Callgraph.succs g tick)));
    Alcotest.test_case "open-scoped bare call resolves" `Quick (fun () ->
        let g, _, _ =
          Lint.Driver.analyze_strings
            [
              ("lib/fix/state.ml", state_ml);
              ( "lib/fix/user.ml",
                "open Fix.State\nlet tick () = bump ()\n" );
            ]
        in
        let bump = node_of g "Fix.State.bump" in
        let tick = node_of g "Fix.User.tick" in
        Alcotest.(check bool)
          "tick -> bump edge" true
          (List.mem bump (Lint.Callgraph.succs g tick)));
    Alcotest.test_case "module-alias call resolves" `Quick (fun () ->
        let g, _, _ =
          Lint.Driver.analyze_strings
            [
              ("lib/fix/state.ml", state_ml);
              ( "lib/fix/user.ml",
                "module S = Fix.State\nlet tick () = S.bump ()\n" );
            ]
        in
        let bump = node_of g "Fix.State.bump" in
        let tick = node_of g "Fix.User.tick" in
        Alcotest.(check bool)
          "tick -> bump edge" true
          (List.mem bump (Lint.Callgraph.succs g tick)));
    Alcotest.test_case "unresolved external ref yields no edge" `Quick
      (fun () ->
        let g, _, _ =
          Lint.Driver.analyze_strings
            [ ("lib/fix/user.ml", "let go () = Stdlib.print_newline ()\n") ]
        in
        let go = node_of g "Fix.User.go" in
        Alcotest.(check (list int)) "no succs" [] (Lint.Callgraph.succs g go));
    Alcotest.test_case "module unpack is a definition" `Quick (fun () ->
        let g, _, _ =
          Lint.Driver.analyze_strings
            [
              ( "lib/fix/sched.ml",
                "let src = Logs.Src.create \"fix\"\n\
                 module Log = (val Logs.src_log src : Logs.LOG)\n\
                 let hits = ref 0\n\
                 module Counted : Logs.LOG = (val (hits := 1; Logs.src_log src))\n"
              );
            ]
        in
        let log = node_of g "Fix.Sched.Log" in
        Alcotest.(check bool)
          "Log -> src edge" true
          (List.mem (node_of g "Fix.Sched.src") (Lint.Callgraph.succs g log));
        let _, counted = Lint.Callgraph.def_of g (node_of g "Fix.Sched.Counted") in
        Alcotest.(check (list string))
          "write inside (val ...)" [ "hits" ]
          (List.filter_map
             (fun (s : Lint.Callgraph.site) ->
               match s.s_kind with
               | Lint.Callgraph.Mutation m -> Some m.m_target
               | _ -> None)
             counted.d_sites));
  ]

(* ------------------------------------------------------------------ *)
(* Escape: fixpoint over a fixture tree.                               *)

(* worker -> Fix.Work.step -> helper -> Fix.Deep.leaf, rooted at the
   closure passed to Exec.Pool.parallel_for; [idle] is unreachable. *)
let escape_tree =
  [
    ( "lib/fix/work.ml",
      "let step i = Fix.Work.helper i\nlet helper i = Fix.Deep.leaf i\n" );
    ("lib/fix/deep.ml", "let leaf i = i + 1\nlet idle () = 0\n");
    ( "lib/fix/driver.ml",
      "let run pool n = Exec.Pool.parallel_for pool n (fun i -> Fix.Work.step \
       i)\n" );
  ]

let escape =
  [
    Alcotest.test_case "transitive callees escape" `Quick (fun () ->
        let g, esc, _ = Lint.Driver.analyze_strings escape_tree in
        List.iter
          (fun name ->
            Alcotest.(check bool) (name ^ " escapes") true
              (Lint.Escape.escapes esc (node_of g name)))
          [ "Fix.Work.step"; "Fix.Work.helper"; "Fix.Deep.leaf" ]);
    Alcotest.test_case "unreferenced def does not escape" `Quick (fun () ->
        let g, esc, _ = Lint.Driver.analyze_strings escape_tree in
        Alcotest.(check bool) "idle stays" false
          (Lint.Escape.escapes esc (node_of g "Fix.Deep.idle")));
    Alcotest.test_case "submitting function does not escape" `Quick (fun () ->
        (* [run] contains the parallel_for call but is never referenced
           from inside its arguments. *)
        let g, esc, _ = Lint.Driver.analyze_strings escape_tree in
        Alcotest.(check bool) "run stays" false
          (Lint.Escape.escapes esc (node_of g "Fix.Driver.run")));
    Alcotest.test_case "witness names root and primitive" `Quick (fun () ->
        let g, esc, _ = Lint.Driver.analyze_strings escape_tree in
        match Lint.Escape.witness esc (node_of g "Fix.Deep.leaf") with
        | None -> Alcotest.fail "no witness for escaping leaf"
        | Some w ->
            Alcotest.(check string)
              "prim" "Exec.Pool.parallel_for" w.Lint.Escape.w_prim;
            Alcotest.(check string) "root" "Fix.Work.step" w.Lint.Escape.w_root);
    Alcotest.test_case "local closure passed by name escapes" `Quick (fun () ->
        (* [f] is bound by a local let and passed to the primitive by
           name, through a second local; its callees run on the pool just
           as an inline closure's do. *)
        let g, esc, _ =
          Lint.Driver.analyze_strings
            [
              ("lib/fix/work.ml", "let step i = Fix.Deep.leaf i\n");
              ("lib/fix/deep.ml", "let leaf i = i + 1\nlet idle () = 0\n");
              ( "lib/fix/driver.ml",
                "let run pool n =\n\
                \  let f i = Fix.Work.step i in\n\
                \  let body = f in\n\
                \  Exec.Pool.parallel_for pool n body\n" );
            ]
        in
        List.iter
          (fun name ->
            Alcotest.(check bool) (name ^ " escapes") true
              (Lint.Escape.escapes esc (node_of g name)))
          [ "Fix.Work.step"; "Fix.Deep.leaf" ];
        Alcotest.(check bool) "idle stays" false
          (Lint.Escape.escapes esc (node_of g "Fix.Deep.idle")));
    Alcotest.test_case "cross-file cycle reaches fixpoint" `Quick (fun () ->
        let g, esc, _ =
          Lint.Driver.analyze_strings
            [
              ("lib/fix/ping.ml", "let go n = Fix.Pong.go (n - 1)\n");
              ("lib/fix/pong.ml", "let go n = Fix.Ping.go (n - 1)\n");
              ( "lib/fix/driver.ml",
                "let run pool = Exec.Pool.parallel_for pool 2 (fun i -> \
                 Fix.Ping.go i)\n" );
            ]
        in
        Alcotest.(check bool) "ping escapes" true
          (Lint.Escape.escapes esc (node_of g "Fix.Ping.go"));
        Alcotest.(check bool) "pong escapes" true
          (Lint.Escape.escapes esc (node_of g "Fix.Pong.go")));
  ]

(* ------------------------------------------------------------------ *)
(* R401: cross-module race detector.                                   *)

let par_user body =
  Printf.sprintf
    "let run pool n = Exec.Pool.parallel_for pool n (fun _ -> %s)\n" body

let r401 =
  [
    Alcotest.test_case "fires on escaping write to module state" `Quick
      (fires "R401"
         [
           ("lib/fix/state.ml", state_ml);
           ("lib/fix/user.ml", par_user "Fix.State.bump ()");
         ]);
    Alcotest.test_case "fires on write directly inside closure" `Quick
      (fires "R401"
         [
           ("lib/fix/state.ml", "let total = ref 0\n");
           ("lib/fix/user.ml", par_user "Fix.State.total := 1");
         ]);
    Alcotest.test_case "fires on write inside a closure passed by name" `Quick
      (fires "R401"
         [
           ("lib/fix/state.ml", "let total = ref 0\n");
           ( "lib/fix/user.ml",
             "let run pool n =\n\
             \  let f _ = Fix.State.total := 1 in\n\
             \  Exec.Pool.parallel_for pool n f\n" );
         ]);
    Alcotest.test_case "fires through a submodule of the same file" `Quick
      (fires "R401"
         [
           ( "lib/fix/user.ml",
             "let hits = ref 0\n\
              module Counter = struct let bump () = incr hits end\n\
              let run pool = Exec.Pool.parallel_for pool 10 (fun _ -> \
              Counter.bump ())\n" );
         ]);
    Alcotest.test_case "module-binding allow suppresses" `Quick
      (silent "R401"
         [
           ( "lib/fix/user.ml",
             "let hits = ref 0\n\
              module Counter = struct let bump () = incr hits end \
              [@@nldl.allow \"R401\"]\n\
              let run pool = Exec.Pool.parallel_for pool 10 (fun _ -> \
              Counter.bump ())\n" );
         ]);
    Alcotest.test_case "silent without a parallel context" `Quick
      (silent "R401"
         [
           ("lib/fix/state.ml", state_ml);
           ("lib/fix/user.ml", "let tick () = Fix.State.bump ()\n");
         ]);
    Alcotest.test_case "silent on local ref" `Quick
      (silent "R401"
         [
           ( "lib/fix/user.ml",
             par_user "(let c = ref 0 in c := 1; !c)" );
         ]);
    Alcotest.test_case "silent under Mutex.protect" `Quick
      (silent "R401"
         [
           ( "lib/fix/state.ml",
             "let m = Mutex.create ()\nlet counter = ref 0\nlet bump () = \
              Mutex.protect m (fun () -> counter := !counter + 1)\n" );
           ("lib/fix/user.ml", par_user "Fix.State.bump ()");
         ]);
    Alcotest.test_case "silent on Atomic state" `Quick
      (silent "R401"
         [
           ( "lib/fix/state.ml",
             "let counter = Atomic.make 0\nlet bump () = Atomic.incr counter\n"
           );
           ("lib/fix/user.ml", par_user "Fix.State.bump ()");
         ]);
    Alcotest.test_case "silent under [@@@nldl.domain_safe]" `Quick
      (silent "R401"
         [
           ( "lib/fix/state.ml",
             "[@@@nldl.domain_safe \"fixture audit\"]\n" ^ state_ml );
           ("lib/fix/user.ml", par_user "Fix.State.bump ()");
         ]);
    Alcotest.test_case "binding-level allow suppresses" `Quick
      (silent "R401"
         [
           ( "lib/fix/state.ml",
             "let counter = ref 0\nlet[@nldl.allow \"R401\"] bump () = \
              counter := !counter + 1\n" );
           ("lib/fix/user.ml", par_user "Fix.State.bump ()");
         ]);
  ]

(* ------------------------------------------------------------------ *)
(* R402: unsafe-zone proof obligations.                                *)

let zone body = "[@@@nldl.unsafe_zone \"fixture\"]\n" ^ body

let r402 =
  [
    Alcotest.test_case "fires on unchecked index" `Quick
      (fires "R402"
         [ ("lib/fix/buf.ml", zone "let get a i = Array.unsafe_get a i\n") ]);
    Alcotest.test_case "silent when dominated by a for loop" `Quick
      (silent "R402"
         [
           ( "lib/fix/buf.ml",
             zone
               "let sum a =\n\
               \  let t = ref 0 in\n\
               \  for i = 0 to Array.length a - 1 do\n\
               \    t := !t + Array.unsafe_get a i\n\
               \  done;\n\
               \  !t\n" );
         ]);
    Alcotest.test_case "silent when dominated by a bounds guard" `Quick
      (silent "R402"
         [
           ( "lib/fix/buf.ml",
             zone
               "let get a i =\n\
               \  if i < 0 || i >= Array.length a then invalid_arg \"get\";\n\
               \  Array.unsafe_get a i\n" );
         ]);
    Alcotest.test_case "silent under valid bounds_validated" `Quick
      (silent "R402"
         [
           ( "lib/fix/buf.ml",
             zone
               "let check a i = i >= 0 && i < Array.length a\n\
                let[@nldl.bounds_validated \"check\"] get a i = \
                Array.unsafe_get a i\n" );
         ]);
    Alcotest.test_case "cross-module bounds_validated resolves" `Quick
      (silent "R402"
         [
           ("lib/fix/chk.ml", "let ensure a i = assert (i < Array.length a)\n");
           ( "lib/fix/buf.ml",
             zone
               "let[@nldl.bounds_validated \"Fix.Chk.ensure\"] get a i = \
                Array.unsafe_get a i\n" );
         ]);
    Alcotest.test_case "fires on stale bounds_validated" `Quick
      (fires "R402"
         [
           ( "lib/fix/buf.ml",
             zone
               "let[@nldl.bounds_validated \"Nowhere.check\"] get a i = \
                Array.unsafe_get a i\n" );
         ]);
    Alcotest.test_case "store value argument is not an index" `Quick
      (silent "R402"
         [
           ( "lib/fix/buf.ml",
             zone
               "let put a v =\n\
               \  for i = 0 to Array.length a - 1 do\n\
               \    Array.unsafe_set a i v\n\
               \  done\n" );
         ]);
    Alcotest.test_case "site-level allow suppresses" `Quick
      (silent "R402"
         [
           ( "lib/fix/buf.ml",
             zone
               "let[@nldl.allow \"R402\"] get a i = Array.unsafe_get a i\n" );
         ]);
  ]

(* ------------------------------------------------------------------ *)
(* R403: blocking calls in pool-escaping code.                         *)

let r403 =
  [
    Alcotest.test_case "fires on sleep inside closure" `Quick
      (fires "R403" [ ("lib/fix/user.ml", par_user "Unix.sleepf 0.1") ]);
    Alcotest.test_case "fires on blocking call in escaping callee" `Quick
      (fires "R403"
         [
           ("lib/fix/io.ml", "let fetch () = Unix.sleepf 0.1\n");
           ("lib/fix/user.ml", par_user "Fix.Io.fetch ()");
         ]);
    Alcotest.test_case "fires through a submodule of the same file" `Quick
      (fires "R403"
         [
           ( "lib/fix/user.ml",
             "module Wait = struct let nap () = Unix.sleepf 0.1 end\n\
              let run pool = Exec.Pool.parallel_for pool 10 (fun _ -> \
              Wait.nap ())\n" );
         ]);
    Alcotest.test_case "silent off the pool" `Quick
      (silent "R403"
         [ ("lib/fix/io.ml", "let fetch () = Unix.sleepf 0.1\n") ]);
    Alcotest.test_case "domain_safe audit covers Mutex.lock" `Quick
      (silent "R403"
         [
           ( "lib/fix/io.ml",
             "[@@@nldl.domain_safe \"fixture audit\"]\nlet m = Mutex.create \
              ()\nlet touch () = Mutex.lock m; Mutex.unlock m\n" );
           ("lib/fix/user.ml", par_user "Fix.Io.touch ()");
         ]);
    Alcotest.test_case "domain_safe audit does not cover syscalls" `Quick
      (fires "R403"
         [
           ( "lib/fix/io.ml",
             "[@@@nldl.domain_safe \"fixture audit\"]\nlet fetch () = \
              Unix.sleepf 0.1\n" );
           ("lib/fix/user.ml", par_user "Fix.Io.fetch ()");
         ]);
    Alcotest.test_case "binding-level allow suppresses" `Quick
      (silent "R403"
         [
           ( "lib/fix/io.ml",
             "let[@nldl.allow \"R403\"] fetch () = Unix.sleepf 0.1\n" );
           ("lib/fix/user.ml", par_user "Fix.Io.fetch ()");
         ]);
  ]

(* ------------------------------------------------------------------ *)
(* Driver robustness: degenerate inputs parse cleanly (no E000).       *)

let robustness =
  [
    Alcotest.test_case "empty file lints clean" `Quick (fun () ->
        Alcotest.(check (list string))
          "no findings" []
          (rules_of (Lint.Driver.lint_string ~file:"lib/fix/empty.ml" "")));
    Alcotest.test_case "UTF-8 BOM is stripped before parsing" `Quick (fun () ->
        Alcotest.(check bool) "no E000" false
          (has "E000"
             (Lint.Driver.lint_string ~file:"lib/fix/bom.ml"
                "\xef\xbb\xbflet x = 1\n")));
    Alcotest.test_case "CRLF endings parse" `Quick (fun () ->
        Alcotest.(check bool) "no E000" false
          (has "E000"
             (Lint.Driver.lint_string ~file:"lib/fix/crlf.ml"
                "let x = 1\r\nlet y = x + 1\r\n")));
    Alcotest.test_case "interface-only unit lints clean" `Quick (fun () ->
        Alcotest.(check bool) "no E000" false
          (has "E000"
             (Lint.Driver.lint_string ~file:"lib/fix/sig_only.mli"
                "val x : int\n")));
    Alcotest.test_case "parse error still reports E000" `Quick (fun () ->
        Alcotest.(check bool) "E000" true
          (has "E000"
             (Lint.Driver.lint_string ~file:"lib/fix/bad.ml" "let let let")));
  ]

(* ------------------------------------------------------------------ *)
(* Cache: digest-keyed phase-1 round-trip through the driver.          *)

let with_temp_dir f =
  let dir = Filename.temp_file "nldl_lint2" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      let rec rm p =
        if Sys.is_directory p then begin
          Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
          Unix.rmdir p
        end
        else Sys.remove p
      in
      rm dir)
    (fun () -> f dir)

let write path content =
  let oc = open_out path in
  output_string oc content;
  close_out oc

let cache =
  [
    Alcotest.test_case "second run hits for every file" `Quick (fun () ->
        with_temp_dir (fun dir ->
            let root = Filename.concat dir "tree" in
            Unix.mkdir root 0o755;
            Unix.mkdir (Filename.concat root "lib") 0o755;
            write (Filename.concat root "lib/a.ml") "let x = ref 0\n";
            write (Filename.concat root "lib/a.mli") "val x : int ref\n";
            write (Filename.concat root "lib/b.ml") "let y = 2\n";
            write (Filename.concat root "lib/b.mli") "val y : int\n";
            let cache_dir = Filename.concat dir "cache" in
            let r1 =
              Lint.Driver.run ~root ~roots:[ "lib" ] ~cache_dir ()
            in
            Alcotest.(check int) "all misses cold" r1.files r1.cache_misses;
            let r2 =
              Lint.Driver.run ~root ~roots:[ "lib" ] ~cache_dir ()
            in
            Alcotest.(check int) "all hits warm" r2.files r2.cache_hits;
            Alcotest.(check int) "no misses warm" 0 r2.cache_misses;
            Alcotest.(check (list string))
              "same findings"
              (List.map Lint.Finding.to_string r1.findings)
              (List.map Lint.Finding.to_string r2.findings)));
    Alcotest.test_case "edited file misses, others hit" `Quick (fun () ->
        with_temp_dir (fun dir ->
            let root = Filename.concat dir "tree" in
            Unix.mkdir root 0o755;
            Unix.mkdir (Filename.concat root "lib") 0o755;
            write (Filename.concat root "lib/a.ml") "let x = 1\n";
            write (Filename.concat root "lib/a.mli") "val x : int\n";
            write (Filename.concat root "lib/b.ml") "let y = 2\n";
            write (Filename.concat root "lib/b.mli") "val y : int\n";
            let cache_dir = Filename.concat dir "cache" in
            let _ = Lint.Driver.run ~root ~roots:[ "lib" ] ~cache_dir () in
            write (Filename.concat root "lib/a.ml") "let x = 3\n";
            let r =
              Lint.Driver.run ~root ~roots:[ "lib" ] ~cache_dir ()
            in
            Alcotest.(check int) "one miss" 1 r.cache_misses;
            Alcotest.(check int) "rest hit" (r.files - 1) r.cache_hits));
  ]

(* ------------------------------------------------------------------ *)
(* Real tree: graph sanity mirroring test_lint.ml's gate check.        *)

let rec find_repo_root dir =
  if
    Sys.file_exists (Filename.concat dir "dune-project")
    && Sys.file_exists (Filename.concat dir "lib")
  then Some dir
  else
    let parent = Filename.dirname dir in
    if parent = dir then None else find_repo_root parent

(* DESIGN.md §17: every lib/ definition that no program reaches stays on
   purpose, and is listed here with its reason.  The programs are bin/,
   bench/, examples/ and perfbench/; module initialisation ([let () =
   ...], [module M = (val ...)]) runs whenever its module is linked, so
   it is a root too.  A new entry needs a §17 reason; a definition that
   leaves the list either found a caller or was deleted. *)
let keep_list =
  [
    (* test entry points *)
    "Cli.Cli.eval_for_test";
    "Cli.Cli.eval_value";
    "Lint.Callgraph.find";
    "Lint.Driver.analyze_strings";
    "Lint.Driver.lint_string";
    "Lint.Driver.lint_strings";
    "Dlt.Nonlinear.For_tests.fixed_set_residual";
    "Dlt.Nonlinear.For_tests.share_step";
    (* validators *)
    "Dlt.Schedule.float_close";
    "Dlt.Schedule.validate";
    "Partition.Layout.validate";
    "Partition.Rect.intersection_area";
    "Partition.Rect.overlaps";
    (* references a remaining test compares against *)
    "Dlt.Bounds.divisible_ideal_makespan";
    "Dlt.Nonlinear.quadratic_share";
    "Dlt.Nonlinear.worker_share";
    "Dlt.Simulate.makespan";
    "Experiments.Csv_out.parse";
    "Kernels.Scatter.bucket_index_floats";
    "Linalg.Cannon.word_volume";
    "Linalg.Matmul.lower_bound_communication";
    "Linalg.Matrix.outer";
    "Linalg.Outer_product.demand_driven_blocks";
    "Linalg.Outer_product.sequential";
    "Linalg.Summa.message_count";
    "Linalg.Summa.word_volume";
    "Partition.Lower_bound.peri_max";
    (* read only to keep the unused-field warning on *)
    "Exec.Pool._touch_pads";
  ]

let reachability =
  Alcotest.test_case "unreached lib/ definitions are the keep-list" `Quick
    (fun () ->
      match find_repo_root (Sys.getcwd ()) with
      | None -> ()
      | Some root ->
          let r =
            Lint.Driver.run ~root
              ~roots:[ "lib"; "bin"; "bench"; "examples"; "perfbench" ]
              ()
          in
          let g = r.graph in
          let in_lib (n : Lint.Callgraph.node) =
            String.length n.n_file >= 4 && String.sub n.n_file 0 4 = "lib/"
          in
          let module_init (n : Lint.Callgraph.node) =
            match List.rev n.n_path with
            | last :: _ -> (
                last = "_" || match last.[0] with 'A' .. 'Z' -> true | _ -> false)
            | [] -> false
          in
          let seen = Array.make (Lint.Callgraph.node_count g) false in
          let rec visit id =
            if not seen.(id) then begin
              seen.(id) <- true;
              List.iter visit (Lint.Callgraph.succs g id)
            end
          in
          for id = 0 to Lint.Callgraph.node_count g - 1 do
            let n = Lint.Callgraph.node g id in
            if (not (in_lib n)) || module_init n then visit id
          done;
          let unreached = ref [] in
          for id = 0 to Lint.Callgraph.node_count g - 1 do
            let n = Lint.Callgraph.node g id in
            if in_lib n && not seen.(id) then
              unreached := String.concat "." n.n_path :: !unreached
          done;
          Alcotest.(check (list string))
            "unreached lib/ definitions"
            (List.sort String.compare keep_list)
            (List.sort String.compare !unreached))

let real_tree =
  [
    Alcotest.test_case "graph covers the tree, no R40x findings" `Quick
      (fun () ->
        match find_repo_root (Sys.getcwd ()) with
        | None -> ()
        | Some root ->
            let r = Lint.Driver.run ~root ~roots:[ "lib"; "bin" ] () in
            Alcotest.(check bool) "nodes" true
              (Lint.Callgraph.node_count r.graph > 100);
            Alcotest.(check bool) "escape set is non-trivial" true
              (Lint.Escape.count r.escape > 0);
            Alcotest.(check bool) "roots found" true
              (Lint.Callgraph.roots r.graph <> []);
            Alcotest.(check (list string))
              "no fresh interprocedural findings" []
              (List.filter
                 (fun k ->
                   List.exists
                     (fun r -> String.length k >= 4 && String.sub k 0 4 = r)
                     [ "R401"; "R402"; "R403" ])
                 (List.map Lint.Finding.key r.fresh)));
    reachability;
  ]

let suites =
  [
    ("lint2.callgraph", callgraph);
    ("lint2.escape", escape);
    ("lint2.r401", r401);
    ("lint2.r402", r402);
    ("lint2.r403", r403);
    ("lint2.robustness", robustness);
    ("lint2.cache", cache);
    ("lint2.real_tree", real_tree);
  ]
