(* Benchmark-side spans around calls into each layer's public
   functions: name, start and end, kept in memory so the ledger can
   read medians from them. *)

type span = { name : string; t0 : int; t1 : int }

let recorded : span list ref = ref []

let time name f =
  let t0 = Obs.Clock.now_ns () in
  let r = f () in
  let t1 = Obs.Clock.now_ns () in
  recorded := { name; t0; t1 } :: !recorded;
  r

let dur s = float_of_int (s.t1 - s.t0)

(* Durations (ns) of every span called [name], in recording order. *)
let durations name =
  let s = Stat.samples () in
  List.iter (fun sp -> if sp.name = name then Stat.add s (dur sp)) (List.rev !recorded);
  s

let median_ns name = Stat.median (durations name)
let count name = Stat.count (durations name)

(* The most recent span of [name]'s duration, for per-request sums. *)
let last_ns name =
  match List.find_opt (fun sp -> sp.name = name) !recorded with
  | Some sp -> dur sp
  | None -> nan
