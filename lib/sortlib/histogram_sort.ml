module Scatter = Kernels.Scatter

type result = { splitters : float array; bucket_sizes : int array; passes : int }

(* One pass, no boxing: a 2-slot float array accumulator (unboxed float
   storage) instead of two [Array.fold_left Float.min/max] sweeps, each
   of which boxes every element it folds — 4 words per key, the entire
   allocation budget of splitter refinement before this. *)
let min_max (keys : float array) =
  (* The annotation is load-bearing: un-annotated, [keys] generalizes to
     ['a array] and both [<] tests become polymorphic compares over
     boxed reads — 6 minor words per key, i.e. the whole refinement
     budget. *)
  let acc = Array.make 2 keys.(0) in
  for i = 1 to Array.length keys - 1 do
    let key = keys.(i) in
    if key < acc.(0) then acc.(0) <- key;
    if key > acc.(1) then acc.(1) <- key
  done;
  acc

let splitters ?(tolerance = 0.02) ?(max_passes = 64) keys ~p =
  if Array.length keys = 0 then invalid_arg "Histogram_sort.splitters: empty input";
  if p < 1 then invalid_arg "Histogram_sort.splitters: p must be >= 1";
  let n = Array.length keys in
  if p = 1 then { splitters = [||]; bucket_sizes = [| n |]; passes = 0 }
  else begin
    let extremes = min_max keys in
    let m = p - 1 in
    let lo = Array.make m extremes.(0) and hi = Array.make m (extremes.(1) +. 1.) in
    let targets = Array.init m (fun j -> (j + 1) * n / p) in
    let ideal = float_of_int n /. float_of_int p in
    (* One set of pass buffers, reused across every refinement sweep. *)
    let probes = Array.make m 0. in
    let order = Array.make m 0 in
    let sorted_probes = Array.make m 0. in
    let counts = Array.make p 0 in
    let passes = ref 0 in
    let out = ref { splitters = [||]; bucket_sizes = [||]; passes = 0 } in
    let refining = ref true in
    while !refining do
      (* The counting pass needs sorted probes, but each rank must be
         credited to the bracket that produced the probe: sort an index
         permutation alongside. *)
      for j = 0 to m - 1 do
        probes.(j) <- 0.5 *. (lo.(j) +. hi.(j));
        order.(j) <- j
      done;
      Array.sort (fun i j -> Float.compare probes.(i) probes.(j)) order;
      for position = 0 to m - 1 do
        sorted_probes.(position) <- probes.(order.(position))
      done;
      incr passes;
      (* One histogram serves both the rank updates (prefix sums: [rank]
         keys lie strictly below sorted probe [position]) and the
         balance check (the counts themselves are the bucket sizes). *)
      Scatter.histogram_floats_into counts keys ~splitters:sorted_probes;
      let rank = ref 0 in
      for position = 0 to m - 1 do
        rank := !rank + counts.(position);
        let j = order.(position) in
        if !rank < targets.(j) then lo.(j) <- probes.(j) else hi.(j) <- probes.(j)
      done;
      let balanced = ref true in
      for b = 0 to p - 1 do
        if Float.abs (float_of_int counts.(b) -. ideal) > tolerance *. ideal then
          balanced := false
      done;
      if !balanced || !passes >= max_passes then begin
        out :=
          {
            splitters = Array.copy sorted_probes;
            bucket_sizes = Array.copy counts;
            passes = !passes;
          };
        refining := false
      end
    done;
    !out
  end

let sort ?tolerance keys ~p =
  if Array.length keys = 0 then [||]
  else begin
    Obs.Trace.begin_span "histsort.splitters";
    let { splitters = s; _ } = splitters ?tolerance keys ~p in
    Obs.Trace.end_span "histsort.splitters";
    Obs.Trace.begin_span "histsort.partition";
    let flat = Scatter.partition_floats keys ~splitters:s in
    Obs.Trace.end_span "histsort.partition";
    let data = flat.Scatter.data in
    Obs.Trace.begin_span "histsort.bucket_sort";
    let sl = Scatter.slice_make () in
    for b = 0 to Scatter.num_buckets flat - 1 do
      Scatter.bucket_slice flat b sl;
      Kernels.Seg_sort.sort_floats data ~lo:sl.Scatter.lo ~len:sl.Scatter.len
    done;
    Obs.Trace.end_span "histsort.bucket_sort";
    data
  end
