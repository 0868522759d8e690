(* The bench's regression gates, as data.

   Each row names one metric of the fresh BENCH_results.json (a
   top-level section plus a path inside it), a comparator, and a limit
   of [threshold] times a baseline: 1 for a constant, the committed
   artifact's value at the same path, or the kernel's line in
   bench/alloc_baseline.txt plus a slack in words so tiny counters do
   not flap.  A row passes exactly at its limit; a metric that is
   missing or NaN fails (every comparison with NaN is false), as does a
   committed-baseline row whose key the committed artifact lacks, and so
   does a kernel the fresh run measured that no allocation row gates.  A
   new gate is one row. *)

type cmp = At_least | At_most

type baseline =
  | Const
  | Committed
  | Kernel of { base : float; slack : float }

type row = {
  section : string;
  path : string list;
  cmp : cmp;
  threshold : float;
  baseline : baseline;
}

let row ?(baseline = Const) section path cmp threshold =
  { section; path; cmp; threshold; baseline }

let table =
  [
    (* Ratios of two timings taken in the same process, so machine
       speed cancels out: the memoized serve path against the solve
       path, the wire float printer against one libc sprintf, the
       observability stack on against off (DESIGN.md s14), and both
       lint phases against phase 1 alone, timed inside one run. *)
    row "serve_throughput" [ "warm_over_cold" ] At_least 10.;
    row "json_codec" [ "compact_over_sprintf17" ] At_most 0.5;
    row "obs_overhead" [ "overhead_ratio" ] At_most 1.05;
    row "obs_overhead" [ "disabled_path_fraction" ] At_most 0.01;
    row "lint_time" [ "full_over_per_file" ] At_most 2.;
    (* Wall-clock rates against the committed artifact: these assume a
       runner comparable to the one that produced it. *)
    row ~baseline:Committed "des_throughput" [ "heap_ops_per_sec_1m" ] At_least 0.9;
    row ~baseline:Committed "des_throughput" [ "mapreduce"; "events_per_sec" ] At_least 0.9;
  ]

(* Kernels whose overhauls (flat buffers, the counting scatter's "O(p)
   plus the output, nothing per key", the in-place radix segment sort,
   the Newton nonlinear solve) are
   locked in: held to the baseline itself (no relative headroom,
   rounding-level slack) so the order-of-magnitude win cannot silently
   erode.  Every other kernel may grow 10%.  Allocation counts are gated
   rather than ns/run because they are pinned by fixed inputs and domain
   counts, so they compare across machines; timings on shared runners
   are too noisy. *)
let ratcheted =
  [
    "scatter_partition_floats";
    "scatter_partition_pool";
    "psrs_sort";
    "histogram_splitters";
    "seg_sort_floats";
    "multicore_sort";
    "event_heap_push_pop";
    "response_to_line";
    "request_decode";
    "nonlinear_equal_finish";
  ]

let alloc_rows baseline =
  List.concat_map
    (fun (kernel, minor, major) ->
      let threshold, slack =
        if List.mem kernel ratcheted then (1.0, 512.) else (1.10, 4096.)
      in
      List.map
        (fun (counter, base) ->
          {
            section = "allocations";
            path = [ kernel; counter ];
            cmp = At_most;
            threshold;
            baseline = Kernel { base; slack };
          })
        [ ("minor_words", minor); ("major_words", major) ])
    baseline

(* --- bench/alloc_baseline.txt: one `kernel minor_words major_words`
   line per kernel, '#' comments ------------------------------------- *)

let alloc_baseline_to_string measured =
  "# Allocation baseline: kernel minor_words major_words\n\
   # Regenerate with: dune exec bench/main.exe -- --quick --write-alloc-baseline \
   bench/alloc_baseline.txt\n\
   # The gate's limits, and which kernels are ratcheted, live in bench/gates.ml.\n"
  ^ String.concat ""
      (List.map
         (fun (name, minor, major) -> Printf.sprintf "%s %.0f %.0f\n" name minor major)
         measured)

let alloc_baseline_of_string text =
  List.filter_map
    (fun line ->
      let line = String.trim line in
      if line = "" || line.[0] = '#' then None
      else
        match String.split_on_char ' ' line with
        | [ name; minor; major ] -> Some (name, float_of_string minor, float_of_string major)
        | _ -> failwith (Printf.sprintf "malformed baseline line: %S" line))
    (String.split_on_char '\n' text)

(* --- evaluation ----------------------------------------------------- *)

type verdict = {
  name : string;  (** dotted path: section, then the metric's path *)
  ok : bool;
  detail : string;  (** "value op limit", or why there was nothing to compare *)
  note : string option;
}

let number json path =
  let rec get json = function
    | [] -> Some json
    | k :: rest -> Option.bind (Obs.Json.member k json) (fun v -> get v rest)
  in
  match get json path with
  | Some (Obs.Json.Float f) -> Some f
  | Some (Obs.Json.Int i) -> Some (float_of_int i)
  | _ -> None

let evaluate_row ~fresh ~committed r =
  let key = r.section :: r.path in
  let limit =
    match r.baseline with
    | Const -> Ok r.threshold
    | Kernel { base; slack } -> Ok ((r.threshold *. base) +. slack)
    | Committed -> (
        match number committed key with
        | Some c -> Ok (r.threshold *. c)
        | None ->
            Error "missing from committed BENCH_results.json — regenerate the committed artifact")
  in
  let value = number fresh key in
  let ok, detail =
    match (value, limit) with
    | None, _ -> (false, "missing from fresh run")
    | Some _, Error e -> (false, e)
    | Some v, Ok limit ->
        let ok, op =
          match r.cmp with At_least -> (v >= limit, ">=") | At_most -> (v <= limit, "<=")
        in
        (ok, Printf.sprintf "%.6g %s %.6g" v op limit)
  in
  (* A ratchet (no relative headroom) now far below its baseline should
     be regenerated to lock the win in. *)
  let note =
    match (r.baseline, value) with
    | Kernel { base; _ }, Some v when r.threshold <= 1.0 && v < 0.5 *. base ->
        Some "far below the ratcheted baseline: regenerate it to lock in the win"
    | _ -> None
  in
  { name = String.concat "." key; ok; detail; note }

(* A kernel in the fresh [allocations] section with no row of its own
   has no bench/alloc_baseline.txt line: fail it rather than leave it
   silently ungated. *)
let ungated_kernels ~fresh rows =
  let gated kernel =
    List.exists (fun r -> r.section = "allocations" && List.nth_opt r.path 0 = Some kernel) rows
  in
  match Obs.Json.member "allocations" fresh with
  | Some (Obs.Json.Obj kernels) ->
      List.filter_map
        (fun (kernel, _) ->
          if gated kernel then None
          else
            Some
              {
                name = "allocations." ^ kernel;
                ok = false;
                detail =
                  "missing from bench/alloc_baseline.txt — regenerate it with \
                   --write-alloc-baseline";
                note = None;
              })
        kernels
  | _ -> []

let evaluate ~fresh ~committed rows =
  List.map (evaluate_row ~fresh ~committed) rows @ ungated_kernels ~fresh rows

(* Print one block listing every row; true when all pass. *)
let report verdicts =
  let failed = List.length (List.filter (fun v -> not v.ok) verdicts) in
  Printf.printf "\nGate check (%d rows, table in bench/gates.ml):\n" (List.length verdicts);
  List.iter
    (fun v ->
      Printf.printf "  %-6s  %-52s %s%s\n" (if v.ok then "OK" else "FAILED") v.name v.detail
        (match v.note with Some n -> "  NOTE " ^ n | None -> ""))
    verdicts;
  if failed = 0 then Printf.printf "Gate check: OK\n%!"
  else Printf.printf "Gate check: FAILED (%d of %d rows)\n%!" failed (List.length verdicts);
  failed = 0
