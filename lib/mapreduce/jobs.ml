let words_of doc =
  String.split_on_char ' ' doc
  |> List.concat_map (String.split_on_char '\n')
  |> List.filter (fun w -> w <> "")

let word_count ~docs =
  let tasks =
    Array.mapi
      (fun i doc ->
        Task.make ~id:i ~data_ids:[| i |] ~cost:(float_of_int (max 1 (String.length doc))))
      docs
  in
  let execute i = List.map (fun w -> (w, 1)) (words_of docs.(i)) in
  let block_size i = float_of_int (max 1 (String.length docs.(i))) in
  { Engine.tasks; execute; block_size }

let check_chunk ~n ~chunk ~name =
  if chunk <= 0 || n mod chunk <> 0 then
    invalid_arg (name ^ ": chunk must be a positive divisor of n")

let outer_product ~a ~b ~chunk =
  let n = Array.length a in
  if Array.length b <> n then invalid_arg "Jobs.outer_product: |a| <> |b|";
  check_chunk ~n ~chunk ~name:"Jobs.outer_product";
  let blocks = n / chunk in
  (* Block ids: [0..blocks) are chunks of a, [blocks..2·blocks) of b. *)
  let tasks =
    Array.init (blocks * blocks) (fun t ->
        let brow = t / blocks and bcol = t mod blocks in
        Task.make ~id:t
          ~data_ids:[| brow; blocks + bcol |]
          ~cost:(float_of_int (chunk * chunk)))
  in
  let execute t =
    let brow = t / blocks and bcol = t mod blocks in
    let pairs = ref [] in
    for i = brow * chunk to ((brow + 1) * chunk) - 1 do
      for j = bcol * chunk to ((bcol + 1) * chunk) - 1 do
        pairs := ((i, j), a.(i) *. b.(j)) :: !pairs
      done
    done;
    List.rev !pairs
  in
  let block_size _ = float_of_int chunk in
  { Engine.tasks; execute; block_size }

let matmul_replicated ~a ~b ~n ~chunk =
  check_chunk ~n ~chunk ~name:"Jobs.matmul_replicated";
  let blocks = n / chunk in
  (* Block ids: A-blocks first ([ib·blocks + kb]), then B-blocks. *)
  let a_block ib kb = (ib * blocks) + kb in
  let b_block kb jb = (blocks * blocks) + (kb * blocks) + jb in
  let tasks =
    Array.init (blocks * blocks * blocks) (fun t ->
        let ib = t / (blocks * blocks) in
        let jb = t / blocks mod blocks in
        let kb = t mod blocks in
        Task.make ~id:t
          ~data_ids:[| a_block ib kb; b_block kb jb |]
          ~cost:(float_of_int (chunk * chunk * chunk)))
  in
  let execute t =
    let ib = t / (blocks * blocks) in
    let jb = t / blocks mod blocks in
    let kb = t mod blocks in
    let pairs = ref [] in
    for i = ib * chunk to ((ib + 1) * chunk) - 1 do
      for j = jb * chunk to ((jb + 1) * chunk) - 1 do
        let acc = ref 0. in
        for k = kb * chunk to ((kb + 1) * chunk) - 1 do
          acc := !acc +. (a i k *. b k j)
        done;
        pairs := ((i, j), !acc) :: !pairs
      done
    done;
    List.rev !pairs
  in
  let block_size _ = float_of_int (chunk * chunk) in
  { Engine.tasks; execute; block_size }

let replication_factor ~n ~chunk =
  check_chunk ~n ~chunk ~name:"Jobs.replication_factor";
  float_of_int n /. float_of_int chunk

let distributed_sort ~keys ~chunk ~splitters =
  let n = Array.length keys in
  if n = 0 then invalid_arg "Jobs.distributed_sort: empty input";
  check_chunk ~n ~chunk ~name:"Jobs.distributed_sort";
  let chunks = n / chunk in
  let tasks =
    Array.init chunks (fun t ->
        Task.make ~id:t ~data_ids:[| t |] ~cost:(float_of_int chunk))
  in
  let execute t =
    let pairs = ref [] in
    for i = t * chunk to ((t + 1) * chunk) - 1 do
      let bucket = Kernels.Scatter.bucket_index_floats splitters keys.(i) in
      pairs := (bucket, [| keys.(i) |]) :: !pairs
    done;
    List.rev !pairs
  in
  let block_size _ = float_of_int chunk in
  { Engine.tasks; execute; block_size }

let assemble_sorted outputs =
  let sorted = List.sort (fun (a, _) (b, _) -> Int.compare a b) outputs in
  Array.concat (List.map snd sorted)

let matmul_phase1 ~a ~b ~n ~chunk =
  check_chunk ~n ~chunk ~name:"Jobs.matmul_phase1";
  let blocks = n / chunk in
  let a_block ib kb = (ib * blocks) + kb in
  let b_block kb jb = (blocks * blocks) + (kb * blocks) + jb in
  let tasks =
    Array.init (blocks * blocks * blocks) (fun t ->
        let ib = t / (blocks * blocks) in
        let jb = t / blocks mod blocks in
        let kb = t mod blocks in
        Task.make ~id:t
          ~data_ids:[| a_block ib kb; b_block kb jb |]
          ~cost:(float_of_int (chunk * chunk * chunk)))
  in
  let execute t =
    let ib = t / (blocks * blocks) in
    let jb = t / blocks mod blocks in
    let kb = t mod blocks in
    let partial = Array.make (chunk * chunk) 0. in
    for i = 0 to chunk - 1 do
      for j = 0 to chunk - 1 do
        let acc = ref 0. in
        for k = 0 to chunk - 1 do
          acc := !acc +. (a ((ib * chunk) + i) ((kb * chunk) + k)
                          *. b ((kb * chunk) + k) ((jb * chunk) + j))
        done;
        partial.((i * chunk) + j) <- !acc
      done
    done;
    [ ((ib, jb, kb), partial) ]
  in
  let block_size _ = float_of_int (chunk * chunk) in
  { Engine.tasks; execute; block_size }

let matmul_phase2 ~phase1_output ~chunk =
  let inputs = Array.of_list phase1_output in
  let tasks =
    Array.init (Array.length inputs) (fun t ->
        (* The input block is the task's single data item. *)
        Task.make ~id:t ~data_ids:[| t |] ~cost:(float_of_int (chunk * chunk)))
  in
  let execute t =
    let (ib, jb, _kb), partial = inputs.(t) in
    [ ((ib, jb), partial) ]
  in
  let block_size _ = float_of_int (chunk * chunk) in
  { Engine.tasks; execute; block_size }

let sum_blocks _ partials =
  match partials with
  | [] -> [||]
  | first :: rest ->
      let acc = Array.copy first in
      List.iter (Array.iteri (fun i v -> acc.(i) <- acc.(i) +. v)) rest;
      acc

let assemble_blocks outputs ~n ~chunk =
  check_chunk ~n ~chunk ~name:"Jobs.assemble_blocks";
  let result = Array.make (n * n) 0. in
  List.iter
    (fun ((ib, jb), block) ->
      for i = 0 to chunk - 1 do
        for j = 0 to chunk - 1 do
          result.((((ib * chunk) + i) * n) + (jb * chunk) + j) <- block.((i * chunk) + j)
        done
      done)
    outputs;
  result
