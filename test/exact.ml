let check areas =
  if Array.length areas > 10 then
    invalid_arg "Exact: exhaustive search limited to 10 areas";
  if Array.length areas = 0 then invalid_arg "Exact: empty areas"

(* Enumerate set partitions: [visit groups] is called for every
   partition of indices [0..n-1] into non-empty groups (as lists). *)
let iter_set_partitions n visit =
  let groups : int list array = Array.make n [] in
  let rec place i group_count =
    if i = n then visit (Array.to_list (Array.sub groups 0 group_count))
    else begin
      for g = 0 to group_count - 1 do
        groups.(g) <- i :: groups.(g);
        place (i + 1) group_count;
        groups.(g) <- List.tl groups.(g)
      done;
      groups.(group_count) <- [ i ];
      place (i + 1) (group_count + 1);
      groups.(group_count) <- []
    end
  in
  place 0 0

let optimize ~areas ~column_cost ~combine ~neutral =
  check areas;
  let best = ref infinity in
  iter_set_partitions (Array.length areas) (fun groups ->
      let cost =
        List.fold_left (fun acc group -> combine acc (column_cost group)) neutral groups
      in
      if cost < !best then best := cost);
  !best

let peri_sum_cost ~areas =
  let column_cost group =
    let width = List.fold_left (fun acc i -> acc +. areas.(i)) 0. group in
    (float_of_int (List.length group) *. width) +. 1.
  in
  optimize ~areas ~column_cost ~combine:( +. ) ~neutral:0.

let peri_max_cost ~areas =
  let column_cost group =
    let width = List.fold_left (fun acc i -> acc +. areas.(i)) 0. group in
    let largest = List.fold_left (fun acc i -> Float.max acc areas.(i)) 0. group in
    width +. (largest /. width)
  in
  optimize ~areas ~column_cost ~combine:Float.max ~neutral:0.
