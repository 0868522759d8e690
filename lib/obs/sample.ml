(* Deterministic sampling primitives for bounded exports.

   Two shapes, both seeded and replayable so sampled artifacts are
   byte-identical across runs and domain counts:

   - [every k]: systematic 1-in-k sampling with explicit seen/kept
     accounting.  Zero allocation per decision — safe to consult in
     instrumented hot loops.

   - [reservoir]: uniform fixed-capacity sampling over a stream of
     unknown length (Vitter's algorithm R) driven by a private
     splitmix64 generator, not [Stdlib.Random], so the picks are a
     pure function of (seed, stream).

   Neither primitive drops anything silently: both expose how many
   elements were seen and how many were kept, and exporters are
   expected to write those numbers into the artifact. *)

(* --- systematic every-k ------------------------------------------------- *)

type every = { k : int; mutable seen : int; mutable kept : int }

let every k =
  if k < 1 then invalid_arg "Sample.every: k must be >= 1";
  { k; seen = 0; kept = 0 }

let[@inline] keep e =
  let take = e.seen mod e.k = 0 in
  e.seen <- e.seen + 1;
  if take then e.kept <- e.kept + 1;
  take

let seen e = e.seen
let kept e = e.kept

let stride ~budget n =
  if budget < 1 then invalid_arg "Sample.stride: budget must be >= 1";
  if n <= budget then 1 else (n + budget - 1) / budget

(* --- splitmix64 --------------------------------------------------------- *)

(* Same generator family as Numerics.Rng's seeding stage, duplicated
   here so [lib/obs] keeps zero dependencies on the numerics stack. *)
let sm64_next state =
  let z = Int64.add state 0x9E3779B97F4A7C15L in
  let s = z in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  (s, Int64.logxor z (Int64.shift_right_logical z 31))

(* --- reservoir ---------------------------------------------------------- *)

type 'a reservoir = {
  cap : int;
  mutable state : int64;
  slots : 'a option array;
  mutable r_seen : int;
}

let reservoir ~seed ~capacity =
  if capacity < 1 then invalid_arg "Sample.reservoir: capacity must be >= 1";
  {
    cap = capacity;
    state = Int64.of_int seed;
    slots = Array.make capacity None;
    r_seen = 0;
  }

let offer r x =
  let i = r.r_seen in
  r.r_seen <- i + 1;
  if i < r.cap then r.slots.(i) <- Some x
  else begin
    let state, z = sm64_next r.state in
    r.state <- state;
    (* Map to [0, i] without modulo bias mattering here: i is far below
       2^62 in any realistic stream. *)
    let j = Int64.to_int (Int64.rem (Int64.logand z Int64.max_int) (Int64.of_int (i + 1))) in
    if j < r.cap then r.slots.(j) <- Some x
  end

let reservoir_seen r = r.r_seen
let reservoir_kept r = min r.r_seen r.cap

let contents r =
  Array.to_list r.slots
  |> List.filter_map (fun x -> x)
