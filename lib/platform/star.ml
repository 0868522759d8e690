type t = { workers : Processor.t array; total_speed : float }

(* The indices [0, n) in [Array.stable_sort]'s order of the records by
   [Float.compare] on their speeds, by a bottom-up merge over unboxed
   speeds and int indices, so a comparison is one inline float compare
   rather than a closure call and two field loads. *)
let order_by_speed (speeds : float array) =
  let n = Array.length speeds in
  let src = ref (Array.init n Fun.id) and dst = ref (Array.make n 0) in
  let width = ref 1 in
  while !width < n do
    let s = !src and d = !dst in
    let lo = ref 0 in
    while !lo < n do
      let mid = Int.min n (!lo + !width) and hi = Int.min n (!lo + (2 * !width)) in
      let i = ref !lo and j = ref mid in
      for k = !lo to hi - 1 do
        (* Ties take the left run's index: stable. *)
        if !j >= hi || (!i < mid && Float.compare speeds.(s.(!i)) speeds.(s.(!j)) <= 0) then begin
          d.(k) <- s.(!i);
          incr i
        end
        else begin
          d.(k) <- s.(!j);
          incr j
        end
      done;
      lo := hi
    done;
    src := d;
    dst := s;
    width := 2 * !width
  done;
  !src

let create procs =
  if procs = [] then invalid_arg "Star.create: at least one worker required";
  let procs = Array.of_list procs in
  let speeds = Array.create_float (Array.length procs) in
  Array.iteri (fun i (p : Processor.t) -> speeds.(i) <- p.speed) procs;
  let workers = Array.map (fun i -> procs.(i)) (order_by_speed speeds) in
  let total_speed = Numerics.Kahan.sum_by (fun (p : Processor.t) -> p.speed) workers in
  { workers; total_speed }

(* [create] on [Processor.make ?bandwidth ?latency ~id:(i + 1)] of each
   speed, without the intermediate list and records: the first worker
   carries the defaults and the link checks, every speed is checked in
   list order, and the sorted array is built once. *)
let of_speeds ?bandwidth ?latency speeds =
  let speeds = Array.of_list speeds in
  if Array.length speeds = 0 then invalid_arg "Star.create: at least one worker required";
  let first = Processor.make ?bandwidth ?latency ~id:1 ~speed:speeds.(0) () in
  Array.iter
    (fun s -> if s <= 0. then invalid_arg "Processor.make: speed must be positive")
    speeds;
  let workers =
    Array.map (fun i -> { first with Processor.id = i + 1; speed = speeds.(i) }) (order_by_speed speeds)
  in
  let total_speed = Numerics.Kahan.sum_by (fun (p : Processor.t) -> p.speed) workers in
  { workers; total_speed }

let size t = Array.length t.workers
let workers t = Array.copy t.workers
let worker t i = t.workers.(i)
let total_speed t = t.total_speed
let speeds t = Array.map (fun (p : Processor.t) -> p.speed) t.workers
let relative_speeds t = Array.map (fun (p : Processor.t) -> p.speed /. t.total_speed) t.workers
let slowest t = t.workers.(0)
let fastest t = t.workers.(Array.length t.workers - 1)

let pp ppf t =
  Format.fprintf ppf "@[<v>star platform, %d workers:@," (size t);
  Array.iter (fun p -> Format.fprintf ppf "  %a@," Processor.pp p) t.workers;
  Format.fprintf ppf "@]"
