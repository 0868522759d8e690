(* Paper Figure 1 / Section 3: sample sort turns sorting into an
   (almost) divisible load.

   Runs a real sample sort, shows the three phases and their costs, the
   bucket-size concentration, and the heterogeneous variant of §3.2.

   Run:  dune exec examples/sample_sort_demo.exe *)

let () =
  let n = 400_000 and p = 8 in
  let rng = Numerics.Rng.create ~seed:7 () in
  let keys = Array.init n (fun _ -> Numerics.Rng.float rng) in
  let s = Sortlib.Sample_sort.default_oversampling ~n in
  Printf.printf "Sorting N = %d keys on p = %d workers, oversampling s = %d\n\n" n p s;

  (* Phase 1: splitters from an oversampled random sample. *)
  let splitters = Sortlib.Sample_sort.choose_splitters_floats rng keys ~p ~s in
  Printf.printf "Phase 1 - splitters (p-1 = %d):\n  " (Array.length splitters);
  Array.iter (fun x -> Printf.printf "%.3f " x) splitters;

  (* Phase 2: bucket the keys. *)
  let flat = Kernels.Scatter.partition_floats keys ~splitters in
  let sizes = Kernels.Scatter.bucket_sizes flat in
  Printf.printf "\n\nPhase 2 - bucket sizes (ideal %d each):\n  " (n / p);
  Array.iter (Printf.printf "%d ") sizes;
  Printf.printf "\n  max/avg ratio %.4f, w.h.p. envelope %.4f\n"
    (Sortlib.Sample_sort.max_bucket_ratio sizes)
    (Sortlib.Sample_sort.theoretical_envelope ~n);

  (* Phase 3: local sorts (executed for real). *)
  for b = 0 to p - 1 do
    Kernels.Seg_sort.sort_floats flat.Kernels.Scatter.data
      ~lo:(Kernels.Scatter.bucket_lo flat b)
      ~len:(Kernels.Scatter.bucket_len flat b)
  done;
  let sorted = flat.Kernels.Scatter.data in
  let ok = ref true in
  for i = 0 to n - 2 do
    if sorted.(i) > sorted.(i + 1) then ok := false
  done;
  Printf.printf "\nPhase 3 - local sorts done; output fully sorted: %b\n" !ok;

  (* Timing model on a homogeneous platform. *)
  let star = Platform.Star.of_speeds (List.init p (fun _ -> 1.)) in
  let timing = Sortlib.Parallel_model.evaluate star ~bucket_sizes:sizes ~s in
  Printf.printf "\nTiming model (comparison units):\n";
  Printf.printf "  phase 1 (master):      %12.0f\n" timing.Sortlib.Parallel_model.phase1;
  Printf.printf "  phase 2 (master):      %12.0f\n" timing.Sortlib.Parallel_model.phase2;
  Printf.printf "  phase 3 (parallel):    %12.0f\n" timing.Sortlib.Parallel_model.phase3;
  Printf.printf "  sequential reference:  %12.0f\n" timing.Sortlib.Parallel_model.sequential;
  Printf.printf "  speedup %.2f (of %d ideal); divisible fraction %.4f (1 - log p/log N = %.4f)\n"
    timing.Sortlib.Parallel_model.speedup p timing.Sortlib.Parallel_model.divisible_fraction
    (1. -. (log (float_of_int p) /. log (float_of_int n)));

  (* Heterogeneous splitters (§3.2). *)
  let het = Platform.Star.of_speeds [ 1.; 1.; 2.; 2.; 4.; 4.; 8.; 8. ] in
  let result = Sortlib.Hetero_sort.run rng het ~keys in
  Printf.printf "\nHeterogeneous platform (speeds 1,1,2,2,4,4,8,8) - bucket sizes:\n  ";
  Array.iter (Printf.printf "%d ") result.Sortlib.Hetero_sort.bucket_sizes;
  Printf.printf "\n  local sort times (should be nearly equal):\n  ";
  Array.iter (fun t -> Printf.printf "%.0f " t) result.Sortlib.Hetero_sort.times;
  Printf.printf "\n  imbalance e = %.4f\n" result.Sortlib.Hetero_sort.imbalance
