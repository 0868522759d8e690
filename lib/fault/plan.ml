(* Deterministic fault plans: every injected fault is fixed at plan
   construction.  Fetch-failure decisions are a pure splitmix64 hash of
   (salt, worker, per-link attempt counter) rather than draws from a
   live generator, so replay does not depend on the order in which the
   scheduler happens to query links. *)

type crash = { worker : int; at : float; recovery : float option }
type slowdown = { worker : int; from_time : float; until : float; factor : float }

type t = {
  p : int;
  crashes : crash array;  (* sorted by (at, worker) *)
  by_worker : crash list array;  (* per worker, sorted by at *)
  slowdowns : slowdown list array;  (* per worker, sorted, non-overlapping *)
  fetch_failure : float array;  (* length p *)
  salt : int64;
}

let none =
  {
    p = 0;
    crashes = [||];
    by_worker = [||];
    slowdowns = [||];
    fetch_failure = [||];
    salt = 0L;
  }

let default_seed = 0x7fddd4d5

(* splitmix64 finalizer: a high-quality 64-bit mixer. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let unit_float h =
  (* top 53 bits to [0, 1) *)
  Int64.to_float (Int64.shift_right_logical h 11) *. 0x1p-53

let validate ~p crashes slowdowns fetch_failure =
  let check_worker what w =
    if w < 0 || w >= p then
      invalid_arg (Printf.sprintf "Fault.Plan: %s names worker %d outside [0, %d)" what w p)
  in
  List.iter
    (fun (c : crash) ->
      check_worker "crash" c.worker;
      if c.at < 0. || not (Float.is_finite c.at) then
        invalid_arg "Fault.Plan: crash time must be finite and >= 0";
      match c.recovery with
      | Some r when r <= c.at || not (Float.is_finite r) ->
          invalid_arg "Fault.Plan: crash recovery must be finite and after the crash"
      | _ -> ())
    crashes;
  List.iter
    (fun (s : slowdown) ->
      check_worker "slowdown" s.worker;
      if s.from_time < 0. || s.until <= s.from_time || not (Float.is_finite s.until) then
        invalid_arg "Fault.Plan: slowdown window must be non-empty, finite and >= 0";
      if s.factor < 1. || not (Float.is_finite s.factor) then
        invalid_arg "Fault.Plan: slowdown factor must be >= 1")
    slowdowns;
  List.iter
    (fun (w, q) ->
      check_worker "fetch_failure" w;
      if q < 0. || q > 1. || Float.is_nan q then
        invalid_arg "Fault.Plan: fetch-failure probability must be in [0, 1]")
    fetch_failure

let group_by_worker ~p items worker =
  let per = Array.make p [] in
  List.iter (fun x -> per.(worker x) <- x :: per.(worker x)) items;
  per

let make ?(crashes = []) ?(slowdowns = []) ?(fetch_failure = []) ?(seed = default_seed)
    ~p () =
  if p <= 0 then invalid_arg "Fault.Plan.make: p must be > 0";
  validate ~p crashes slowdowns fetch_failure;
  let by_worker = group_by_worker ~p crashes (fun c -> c.worker) in
  Array.iteri
    (fun w cs ->
      let cs = List.sort (fun a b -> compare a.at b.at) cs in
      (* crash intervals on one worker must not overlap, and a
         permanent crash must be the last one *)
      let rec check = function
        | { recovery = None; _ } :: _ :: _ ->
            invalid_arg "Fault.Plan: permanent crash followed by another crash"
        | { recovery = Some r; _ } :: (next :: _ as rest) ->
            if next.at < r then invalid_arg "Fault.Plan: overlapping crash intervals";
            check rest
        | _ -> ()
      in
      check cs;
      by_worker.(w) <- cs)
    by_worker;
  let per_slow = group_by_worker ~p slowdowns (fun s -> s.worker) in
  Array.iteri
    (fun w ss ->
      let ss = List.sort (fun a b -> compare a.from_time b.from_time) ss in
      let rec check = function
        | a :: (b :: _ as rest) ->
            if b.from_time < a.until then
              invalid_arg "Fault.Plan: overlapping slowdown windows";
            check rest
        | _ -> ()
      in
      check ss;
      per_slow.(w) <- ss)
    per_slow;
  let ff = Array.make p 0. in
  List.iter (fun (w, q) -> ff.(w) <- q) fetch_failure;
  let sorted =
    List.sort (fun a b -> compare (a.at, a.worker) (b.at, b.worker)) crashes
  in
  {
    p;
    crashes = Array.of_list sorted;
    by_worker;
    slowdowns = per_slow;
    fetch_failure = ff;
    salt = mix64 (Int64.of_int seed);
  }

let generate ~rng ~p ~horizon ?(crash_rate = 0.) ?downtime ?(permanent = false)
    ?(slowdown_rate = 0.) ?(slowdown_factor = 4.) ?(fetch_failure = 0.) () =
  if p <= 0 then invalid_arg "Fault.Plan.generate: p must be > 0";
  if horizon <= 0. || not (Float.is_finite horizon) then
    invalid_arg "Fault.Plan.generate: horizon must be finite and > 0";
  let downtime = match downtime with Some d -> d | None -> horizon /. 4. in
  if downtime <= 0. then invalid_arg "Fault.Plan.generate: downtime must be > 0";
  let crashes = ref [] and slowdowns = ref [] in
  (* one pass per worker, fixed draw order: crash coin, crash time,
     slowdown coin, slowdown start — so a given seed always yields the
     same plan *)
  for w = 0 to p - 1 do
    let crash_coin = Numerics.Rng.float rng in
    let crash_time = Numerics.Rng.uniform rng 0. horizon in
    let slow_coin = Numerics.Rng.float rng in
    let slow_start = Numerics.Rng.uniform rng 0. (0.75 *. horizon) in
    if crash_coin < crash_rate then
      crashes :=
        {
          worker = w;
          at = crash_time;
          recovery = (if permanent then None else Some (crash_time +. downtime));
        }
        :: !crashes;
    if slow_coin < slowdown_rate then
      slowdowns :=
        {
          worker = w;
          from_time = slow_start;
          until = slow_start +. (0.25 *. horizon);
          factor = slowdown_factor;
        }
        :: !slowdowns
  done;
  let salt_seed = Int64.to_int (Numerics.Rng.int64 rng) in
  let ff = List.init p (fun w -> (w, fetch_failure)) in
  make ~crashes:!crashes ~slowdowns:!slowdowns ~fetch_failure:ff ~seed:salt_seed ~p ()

let p t = t.p
let crashes t = Array.to_list t.crashes
let slowdowns t = Array.to_list t.slowdowns |> List.concat

let in_range t w = w >= 0 && w < t.p

let fetch_failure t ~worker =
  if in_range t worker then t.fetch_failure.(worker) else 0.

let fetch_fails t ~worker ~attempt =
  let q = fetch_failure t ~worker in
  if q <= 0. then false
  else if q >= 1. then true
  else begin
    let h =
      mix64
        (Int64.add t.salt
           (Int64.add
              (Int64.mul (Int64.of_int worker) 0x9e3779b97f4a7c15L)
              (Int64.mul (Int64.of_int attempt) 0xd1b54a32d192ed03L)))
    in
    unit_float h < q
  end

let next_crash t ~worker ~after =
  if not (in_range t worker) then None
  else List.find_opt (fun c -> c.at >= after) t.by_worker.(worker)

let advance t ~worker ~start ~duration =
  if duration <= 0. then start
  else if not (in_range t worker) then start +. duration
  else begin
    let remaining = ref duration and cursor = ref start in
    let finished = ref None in
    List.iter
      (fun s ->
        match !finished with
        | Some _ -> ()
        | None ->
            if s.until > !cursor then begin
              (* unslowed gap before the window *)
              (if s.from_time > !cursor then begin
                 let gap = s.from_time -. !cursor in
                 if !remaining <= gap then finished := Some (!cursor +. !remaining)
                 else begin
                   remaining := !remaining -. gap;
                   cursor := s.from_time
                 end
               end);
              match !finished with
              | Some _ -> ()
              | None ->
                  (* inside the window: time passes [factor] times faster *)
                  let capacity = (s.until -. !cursor) /. s.factor in
                  if !remaining <= capacity then
                    finished := Some (!cursor +. (!remaining *. s.factor))
                  else begin
                    remaining := !remaining -. capacity;
                    cursor := s.until
                  end
            end)
      t.slowdowns.(worker);
    match !finished with Some f -> f | None -> !cursor +. !remaining
  end

let work_between t ~worker ~start ~until =
  if until <= start then 0.
  else if not (in_range t worker) then until -. start
  else begin
    let work = ref 0. and cursor = ref start in
    List.iter
      (fun s ->
        if s.until > !cursor && s.from_time < until then begin
          (if s.from_time > !cursor then begin
             work := !work +. (Float.min s.from_time until -. !cursor);
             cursor := Float.min s.from_time until
           end);
          if !cursor < until && !cursor < s.until then begin
            let stop = Float.min s.until until in
            work := !work +. ((stop -. !cursor) /. s.factor);
            cursor := stop
          end
        end)
      t.slowdowns.(worker);
    if !cursor < until then work := !work +. (until -. !cursor);
    !work
  end
