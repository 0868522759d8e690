(* nldl-lint: fixture corpus per rule, suppression round-trips, the
   driver over a directory tree, and a real-tree gate check.  Fixtures
   go through [Lint.Driver.analyze_strings] so no temp files are needed
   except for the directory tests. *)

let rules_of findings = List.map (fun (f : Lint.Finding.t) -> f.rule) findings

let has rule findings = List.mem rule (rules_of findings)

(* One file through both phases; only the findings matter here. *)
let lint ~file src =
  let _, _, findings = Lint.Driver.analyze_strings [ (file, src) ] in
  findings

let check_fires rule ~file src () =
  let fs = lint ~file src in
  Alcotest.(check bool) (rule ^ " fires") true (has rule fs)

let check_clean ?rule ~file src () =
  let fs = lint ~file src in
  match rule with
  | Some r -> Alcotest.(check bool) (r ^ " silent") false (has r fs)
  | None ->
      Alcotest.(check (list string)) "no findings" [] (rules_of fs)

(* ------------------------------------------------------------------ *)
(* D-rules: determinism.                                               *)

let d_rules =
  [
    Alcotest.test_case "D001 Random.self_init" `Quick
      (check_fires "D001" ~file:"lib/des/x.ml" "let () = Random.self_init ()");
    Alcotest.test_case "D001 Random.int" `Quick
      (check_fires "D001" ~file:"lib/des/x.ml" "let n = Random.int 6");
    Alcotest.test_case "D001 silent on Numerics.Rng" `Quick
      (check_clean ~file:"lib/des/x.ml"
         "let n rng = Numerics.Rng.uniform rng 0. 1.");
    Alcotest.test_case "D002 Unix.gettimeofday" `Quick
      (check_fires "D002" ~file:"lib/des/x.ml"
         "let t () = Unix.gettimeofday ()");
    Alcotest.test_case "D002 Sys.time" `Quick
      (check_fires "D002" ~file:"bin/x.ml" "let t () = Sys.time ()");
    Alcotest.test_case "D002 exempt inside Obs.Clock" `Quick
      (check_clean ~rule:"D002" ~file:"lib/obs/clock.ml"
         "let now () = Unix.gettimeofday ()");
  ]

(* ------------------------------------------------------------------ *)
(* U-rules: unsafe zones.                                              *)

let unsafe_src = "let f a = Array.unsafe_get a 0"

let u_rules =
  [
    Alcotest.test_case "U101 unsafe_get without zone" `Quick
      (check_fires "U101" ~file:"lib/kernels/x.ml" unsafe_src);
    Alcotest.test_case "U101 Bytes.unsafe_set without zone" `Quick
      (check_fires "U101" ~file:"lib/kernels/x.ml"
         "let f b = Bytes.unsafe_set b 0 'x'");
    Alcotest.test_case "U101 silent inside a zone" `Quick
      (check_clean ~rule:"U101" ~file:"lib/kernels/x.ml"
         ("[@@@nldl.unsafe_zone \"bounds checked in caller\"]\n" ^ unsafe_src));
    Alcotest.test_case "U102 zone without reason" `Quick
      (check_fires "U102" ~file:"lib/kernels/x.ml"
         ("[@@@nldl.unsafe_zone]\n" ^ unsafe_src));
    Alcotest.test_case "U103 stale zone" `Quick
      (check_fires "U103" ~file:"lib/kernels/x.ml"
         "[@@@nldl.unsafe_zone \"was needed once\"]\nlet f a = Array.get a 0");
    Alcotest.test_case "U103 silent when unsafe present" `Quick
      (check_clean ~rule:"U103" ~file:"lib/kernels/x.ml"
         ("[@@@nldl.unsafe_zone \"bounds checked in caller\"]\n" ^ unsafe_src));
  ]

(* ------------------------------------------------------------------ *)
(* S-rules: domain safety.                                             *)

let s_rules =
  [
    Alcotest.test_case "S201 top-level ref in lib/" `Quick
      (check_fires "S201" ~file:"lib/des/x.ml" "let counter = ref 0");
    Alcotest.test_case "S201 top-level Hashtbl in lib/" `Quick
      (check_fires "S201" ~file:"lib/des/x.ml"
         "let cache = Hashtbl.create 16");
    Alcotest.test_case "S201 silent under domain_safe" `Quick
      (check_clean ~rule:"S201" ~file:"lib/des/x.ml"
         "[@@@nldl.domain_safe \"guarded by mutex\"]\nlet counter = ref 0");
    Alcotest.test_case "S201 silent on local ref" `Quick
      (check_clean ~rule:"S201" ~file:"lib/des/x.ml"
         "let f () = let c = ref 0 in incr c; !c");
    Alcotest.test_case "S201 silent outside lib/" `Quick
      (check_clean ~rule:"S201" ~file:"bin/x.ml" "let counter = ref 0");
    Alcotest.test_case "S201 binding-level allow" `Quick
      (check_clean ~rule:"S201" ~file:"lib/des/x.ml"
         "let table = [| 1.; 2. |] [@@nldl.allow \"S201\"]");
  ]

(* ------------------------------------------------------------------ *)
(* H-rules: hygiene.                                                   *)

let h_rules =
  [
    Alcotest.test_case "H301 Obj.magic" `Quick
      (check_fires "H301" ~file:"lib/des/x.ml" "let f x = Obj.magic x");
    Alcotest.test_case "H302 float literal compare in lib/" `Quick
      (check_fires "H302" ~file:"lib/des/x.ml" "let z x = x = 0.");
    Alcotest.test_case "H302 silent in test/" `Quick
      (check_clean ~rule:"H302" ~file:"test/x.ml" "let z x = x = 0.");
    Alcotest.test_case "H302 silent on epsilon compare" `Quick
      (check_clean ~rule:"H302" ~file:"lib/des/x.ml"
         "let z x = Float.abs x < 1e-9");
    Alcotest.test_case "H303 Array.concat in kernels" `Quick
      (check_fires "H303" ~file:"lib/kernels/x.ml"
         "let f xs = Array.concat xs");
    Alcotest.test_case "H303 silent outside kernels" `Quick
      (check_clean ~rule:"H303" ~file:"lib/des/x.ml"
         "let f xs = Array.concat xs");
    Alcotest.test_case "H305 float make_matrix in kernels" `Quick
      (check_fires "H305" ~file:"lib/kernels/x.ml"
         "let m = Array.make_matrix 3 3 0.");
    Alcotest.test_case "H305 nested float rows in linalg" `Quick
      (check_fires "H305" ~file:"lib/linalg/x.ml"
         "let m n = Array.init n (fun _ -> Array.make n 0.)");
    Alcotest.test_case "H305 silent on int make_matrix" `Quick
      (check_clean ~rule:"H305" ~file:"lib/kernels/x.ml"
         "let m = Array.make_matrix 3 3 0");
    Alcotest.test_case "H305 silent outside the hot libs" `Quick
      (check_clean ~rule:"H305" ~file:"lib/des/x.ml"
         "let m = Array.make_matrix 3 3 0.");
    Alcotest.test_case "H305 tuple-returning slice helper" `Quick
      (check_fires "H305" ~file:"lib/kernels/x.ml"
         "let bucket_bounds t b = (t + b, t - b)");
    Alcotest.test_case "H305 int slice accessor is fine" `Quick
      (check_clean ~rule:"H305" ~file:"lib/kernels/x.ml"
         "let bucket_lo t b = t + b");
    Alcotest.test_case "H305 binding allow suppresses" `Quick
      (check_clean ~rule:"H305" ~file:"lib/kernels/x.ml"
         "let bucket_bounds t b = (t + b, t - b) [@@nldl.allow \"H305\"]");
    Alcotest.test_case "H307 clock external in lib/" `Quick
      (check_fires "H307" ~file:"lib/des/x.ml"
         "external now : unit -> (int64[@unboxed]) = \"x\" \
          \"caml_my_clock_gettime\" [@@noalloc]");
    Alcotest.test_case "H307 gettimeofday external too" `Quick
      (check_fires "H307" ~file:"lib/numerics/x.ml"
         "external tod : unit -> float = \"caml_my_gettimeofday\"");
    Alcotest.test_case "H307 silent inside lib/obs" `Quick
      (check_clean ~rule:"H307" ~file:"lib/obs/clock.ml"
         "external now : unit -> (int64[@unboxed]) = \"x\" \
          \"caml_my_clock_gettime\" [@@noalloc]");
    Alcotest.test_case "H307 silent on non-clock external" `Quick
      (check_clean ~rule:"H307" ~file:"lib/kernels/x.ml"
         "external dim : t -> int = \"%caml_ba_dim_1\"");
    Alcotest.test_case "H307 hist array in instrumented lib" `Quick
      (check_fires "H307" ~file:"lib/mapreduce/x.ml"
         "let latency_hist = Array.make 64 0");
    Alcotest.test_case "H307 local hist array too" `Quick
      (check_fires "H307" ~file:"lib/des/x.ml"
         "let f () = let hist_buckets = Array.init 32 (fun _ -> 0) in hist_buckets");
    Alcotest.test_case "H307 silent in sortlib (algorithmic counts)" `Quick
      (check_clean ~rule:"H307" ~file:"lib/sortlib/x.ml"
         "let hist = Array.make 256 0");
    Alcotest.test_case "H307 silent on non-hist array" `Quick
      (check_clean ~rule:"H307" ~file:"lib/mapreduce/x.ml"
         "let run_start = Array.make 64 0.");
    Alcotest.test_case "H307 binding allow suppresses" `Quick
      (check_clean ~rule:"H307" ~file:"lib/des/x.ml"
         "let hist_oracle = Array.make 8 0 [@@nldl.allow \"H307\"]");
    Alcotest.test_case "H308 hand-rolled Json.Obj in experiments" `Quick
      (check_fires "H308" ~file:"lib/experiments/foo.ml"
         "let j rows = Obs.Json.Obj [ (\"rows\", Obs.Json.List rows) ]");
    Alcotest.test_case "H308 aliased Json constructor too" `Quick
      (check_fires "H308" ~file:"lib/experiments/foo.ml"
         "let j rows = Json.List rows");
    Alcotest.test_case "H308 silent in registry.ml" `Quick
      (check_clean ~rule:"H308" ~file:"lib/experiments/registry.ml"
         "let j = Obs.Json.Obj []");
    Alcotest.test_case "H308 silent outside experiments" `Quick
      (check_clean ~rule:"H308" ~file:"lib/des/x.ml"
         "let j = Obs.Json.Obj []");
    Alcotest.test_case "H308 binding allow suppresses" `Quick
      (check_clean ~rule:"H308" ~file:"lib/experiments/foo.ml"
         "let j = Obs.Json.Obj [] [@@nldl.allow \"H308\"]");
    Alcotest.test_case "X001 unknown nldl attribute" `Quick
      (check_fires "X001" ~file:"lib/des/x.ml"
         "[@@@nldl.unsfe_zone \"typo\"]\nlet x = 1");
    Alcotest.test_case "E000 parse failure" `Quick
      (check_fires "E000" ~file:"lib/des/x.ml" "let let let");
  ]

(* ------------------------------------------------------------------ *)
(* Suppression round-trips.                                            *)

let suppression =
  [
    Alcotest.test_case "expr allow suppresses H302" `Quick
      (check_clean ~rule:"H302" ~file:"lib/des/x.ml"
         "let z x = (x = 0.) [@nldl.allow \"H302\"]");
    Alcotest.test_case "wrong-id allow does not suppress" `Quick
      (check_fires "H302" ~file:"lib/des/x.ml"
         "let z x = (x = 0.) [@nldl.allow \"H301\"]");
    Alcotest.test_case "file-level allow suppresses everywhere" `Quick
      (check_clean ~rule:"H302" ~file:"lib/des/x.ml"
         "[@@@nldl.allow \"H302\"]\nlet z x = x = 0.\nlet y x = x <> 1.");
    Alcotest.test_case "allow is rule-scoped" `Quick (fun () ->
        (* The H302 allow must not swallow the sibling H301. *)
        let fs =
          lint ~file:"lib/des/x.ml"
            "[@@@nldl.allow \"H302\"]\nlet z x = x = 0.\nlet g x = Obj.magic x"
        in
        Alcotest.(check bool) "H301 survives" true (has "H301" fs);
        Alcotest.(check bool) "H302 gone" false (has "H302" fs));
  ]

(* ------------------------------------------------------------------ *)
(* Driver over a synthetic tree (H304, unreadable entries, the gate),
   and the real tree.                                                  *)

let with_temp_tree f =
  let dir = Filename.temp_file "nldl_lint_tree" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Unix.mkdir (Filename.concat dir "lib") 0o755;
  Fun.protect
    ~finally:(fun () ->
      (* [lstat], so a dangling symlink is removed, not followed. *)
      let rec rm p =
        if (Unix.lstat p).Unix.st_kind = Unix.S_DIR then begin
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

let rec find_repo_root dir =
  if
    Sys.file_exists (Filename.concat dir "dune-project")
    && Sys.file_exists (Filename.concat dir "lib")
  then Some dir
  else
    let parent = Filename.dirname dir in
    if parent = dir then None else find_repo_root parent

let driver =
  [
    Alcotest.test_case "H304 missing mli in lib tree" `Quick (fun () ->
        with_temp_tree (fun dir ->
            write (Filename.concat dir "lib/a.ml") "let x = 1\n";
            write (Filename.concat dir "lib/b.ml") "let y = 2\n";
            write (Filename.concat dir "lib/b.mli") "val y : int\n";
            let r = Lint.Driver.run ~root:dir ~roots:[ "lib" ] () in
            let h304 =
              List.filter (fun (f : Lint.Finding.t) -> f.rule = "H304") r.findings
            in
            Alcotest.(check int) "one missing mli" 1 (List.length h304);
            Alcotest.(check bool) "names a.ml" true
              (List.exists (fun (f : Lint.Finding.t) -> f.file = "lib/a.ml") h304)));
    Alcotest.test_case "a finding fails the gate" `Quick (fun () ->
        with_temp_tree (fun dir ->
            write (Filename.concat dir "lib/a.ml") "let c = ref 0\n";
            write (Filename.concat dir "lib/a.mli") "val c : int ref\n";
            let r = Lint.Driver.run ~root:dir ~roots:[ "lib" ] () in
            Alcotest.(check (list string)) "one S201" [ "S201" ] (rules_of r.findings);
            Alcotest.(check bool) "gate fails" false (Lint.Driver.gate_ok r)));
    Alcotest.test_case "dangling symlink is an E000, not a crash" `Quick (fun () ->
        with_temp_tree (fun dir ->
            write (Filename.concat dir "lib/a.ml") "let x = 1\n";
            write (Filename.concat dir "lib/a.mli") "val x : int\n";
            write (Filename.concat dir "lib/b.mli") "val y : int\n";
            Unix.symlink
              (Filename.concat dir "nonexistent.ml")
              (Filename.concat dir "lib/b.ml");
            let r = Lint.Driver.run ~root:dir ~roots:[ "lib" ] () in
            Alcotest.(check (list string))
              "one E000 naming the file"
              [ "lib/b.ml:1:0: [E000] cannot read: No such file or directory" ]
              (List.map Lint.Finding.to_string r.findings);
            Alcotest.(check bool) "gate fails" false (Lint.Driver.gate_ok r)));
    Alcotest.test_case "real tree: no new findings" `Quick (fun () ->
        (* dune runtest runs from _build/default/test; walk up to the
           source root so the check covers the committed tree. *)
        match find_repo_root (Sys.getcwd ()) with
        | None -> ()
        | Some root ->
            let r = Lint.Driver.run ~root ~roots:[ "lib"; "bin" ] () in
            Alcotest.(check (list string))
              "no findings"
              []
              (List.map Lint.Finding.to_string r.findings));
  ]

let suites =
  [
    ("lint.d_rules", d_rules);
    ("lint.u_rules", u_rules);
    ("lint.s_rules", s_rules);
    ("lint.h_rules", h_rules);
    ("lint.suppression", suppression);
    ("lint.driver", driver);
  ]
