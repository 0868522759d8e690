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
