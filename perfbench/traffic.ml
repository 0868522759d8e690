(* Seeded query traffic for the serve workloads.  The benchmark builds
   [Api.Request.t] values here and sends only their wire lines; the
   daemon under test never sees the seed. *)

module Rng = Numerics.Rng
module Json = Obs.Json

type kind = Ratio | Plan | Schedule | Multi_load

let kinds = [| Ratio; Plan; Schedule; Multi_load |]

(* Three decimals keep lines realistic and every value round-trips. *)
let round3 x = Float.round (x *. 1000.) /. 1000.
let speeds rng p = Array.init p (fun _ -> round3 (Rng.uniform rng 0.5 8.))
let comm rng = if Rng.bool rng then Dlt.Schedule.Parallel else Dlt.Schedule.One_port

(* The mix that makes each stage of the query plane carry time:
   nonlinear [ratio] at p=64 is solver-bound, linear [plan] at p=64 is
   fingerprint- and encode-bound, [schedule] at p=32 is encode-bound
   (one row per worker), and [multi_load] at p=64 is fingerprint-bound. *)
let request rng kind =
  let total = round3 (Rng.uniform rng 100. 10_000.) in
  let made =
    match kind with
    | Ratio ->
        Api.Request.make ~comm_model:(comm rng)
          ~workload:(Dlt.Cost_model.Power (round3 (Rng.uniform rng 1.2 3.)))
          ~total ~platform:(Api.Request.Speeds (speeds rng 64)) ~kind:Api.Request.Ratio ()
    | Plan ->
        Api.Request.make ~comm_model:(comm rng) ~total
          ~platform:(Api.Request.Speeds (speeds rng 64)) ~kind:Api.Request.Plan ()
    | Schedule ->
        Api.Request.make ~comm_model:(comm rng) ~total
          ~latency:(round3 (Rng.uniform rng 0. 0.01))
          ~platform:(Api.Request.Speeds (speeds rng 32)) ~kind:Api.Request.Schedule ()
    | Multi_load ->
        let loads = Array.init 8 (fun _ -> round3 (Rng.uniform rng 0.1 20.)) in
        Api.Request.make ~platform:(Api.Request.Speeds (speeds rng 64))
          ~kind:(Api.Request.Multi_load loads) ()
  in
  match made with
  | Ok r -> r
  | Error e -> failwith ("Traffic.request: generated an invalid request: " ^ e)

let line r = Json.to_compact (Api.Request.to_json r)

(* Equivalent spellings of one query: the canonical line, its fields in
   reverse order, and permuted speed vectors.  All of them share a
   fingerprint, so after the first solve they hit the cache. *)
let n_spellings = 5

let spell rng r k =
  let permuted () =
    match r.Api.Request.platform with
    | Api.Request.Speeds s ->
        let s = Array.copy s in
        Rng.shuffle rng s;
        { r with platform = Api.Request.Speeds s }
    | Api.Request.Profile _ -> r
  in
  let reversed r =
    match Api.Request.to_json r with
    | Json.Obj fields -> Json.to_compact (Json.Obj (List.rev fields))
    | j -> Json.to_compact j
  in
  match k with
  | 0 -> line r
  | 1 -> reversed r
  | 2 -> line (permuted ())
  | 3 -> reversed (permuted ())
  | _ -> line (permuted ())

(* serve_hot: [distinct] queries of mixed kinds, each in
   [n_spellings] spellings, drawn by a Zipf(1) law over the queries and
   uniformly over the spellings.  Query [i] is of kind [i mod 4] at
   every seed, so the seed changes values but not the mix each rank
   carries. *)
type hot = {
  queries : Api.Request.t array;
  spellings : string array;  (** query [q], spelling [k] at [q * n_spellings + k] *)
  cdf : float array;
  draw : Rng.t;
}

let hot ~seed ~distinct =
  let rng = Rng.create ~seed:(seed * 7 + 1) () in
  let queries = Array.init distinct (fun i -> request rng kinds.(i mod Array.length kinds)) in
  let spellings =
    Array.init (distinct * n_spellings) (fun i -> spell rng queries.(i / n_spellings) (i mod n_spellings))
  in
  let weights = Array.init distinct (fun i -> 1. /. float_of_int (i + 1)) in
  let total = Array.fold_left ( +. ) 0. weights in
  let acc = ref 0. in
  let cdf = Array.map (fun w -> acc := !acc +. (w /. total); !acc) weights in
  { queries; spellings; cdf; draw = Rng.create ~seed:(seed * 7 + 2) () }

(* Index into [spellings] of the next request. *)
let next_hot h =
  let u = Rng.float h.draw in
  let lo = ref 0 and hi = ref (Array.length h.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if h.cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  (!lo * n_spellings) + Rng.int h.draw n_spellings

(* serve_cold: an endless stream of distinct requests, kinds in equal
   shares.  [warm] draws from its own generator, so the timed stream is
   the same whatever the warm-up pass sends. *)
type cold = { gen : Rng.t; mutable issued : int }

let cold ~seed ~warm =
  { gen = Rng.create ~seed:((seed * 7) + (if warm then 3 else 4)) (); issued = 0 }

let next_cold c =
  let r = request c.gen kinds.(c.issued mod Array.length kinds) in
  c.issued <- c.issued + 1;
  r
