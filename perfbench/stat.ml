(* Sample summaries shared by every workload: medians, the earned tail
   percentile, and the metric records printed in the result line. *)

(* A growable buffer of float samples, so a timed loop records without
   deciding its length up front. *)
type samples = { mutable data : float array; mutable n : int }

let samples () = { data = Array.make 1024 0.; n = 0 }

let add s v =
  if s.n = Array.length s.data then begin
    let bigger = Array.make (2 * s.n) 0. in
    Array.blit s.data 0 bigger 0 s.n;
    s.data <- bigger
  end;
  s.data.(s.n) <- v;
  s.n <- s.n + 1

let count s = s.n
let sorted s =
  let a = Array.sub s.data 0 s.n in
  Array.sort Float.compare a;
  a

let sum s =
  let acc = ref 0. in
  for i = 0 to s.n - 1 do
    acc := !acc +. s.data.(i)
  done;
  !acc

let median_of a =
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let median s = median_of (sorted s)

let median_list l = median_of (let a = Array.of_list l in Array.sort Float.compare a; a)

(* The highest percentile that still has at least 10 samples above it:
   rank [n - 11] of [n] ascending samples, labelled [100 (n - 10) / n]. *)
let tail_pct n = 100. *. float_of_int (n - 10) /. float_of_int n
let tail_of a = a.(Array.length a - 11)

(* [tail s] is that percentile taken per window of [window] consecutive
   samples (p95), and the median over the windows: a run of 10^5 round
   trips gives the median of 500 windows' p95, not a p99.99 set by the
   ten longest host stalls of the run.  A run shorter than one window is a
   single window; samples past the last whole window are left out of
   the tail.  Returns the value, the percentile and the window
   count; [None] below 11 samples, where no such percentile exists. *)
let window = 200

let tail s =
  if s.n < 11 then None
  else if s.n < window then
    Some (tail_of (sorted s), tail_pct s.n, 1)
  else begin
    let windows = s.n / window in
    let per =
      List.init windows (fun k ->
          let a = Array.sub s.data (k * window) window in
          Array.sort Float.compare a;
          tail_of a)
    in
    Some (median_list per, tail_pct window, windows)
  end

let ns_to_ms ns = ns /. 1e6

(* One printed metric: its declared name, value and unit, plus a note
   (sample count, percentile, base of a ratio) shown in the tables. *)
type metric = { name : string; value : float; unit : string; note : string }

let metric ?(note = "") name unit value = { name; value; unit; note }

(* Shortest decimal that reads back as the same double: the result line
   carries each value with all its digits. *)
let number v =
  if not (Float.is_finite v) then invalid_arg "Stat.number: non-finite metric value";
  let rec go prec =
    let s = Printf.sprintf "%.*g" prec v in
    if prec >= 17 || float_of_string s = v then s else go (prec + 1)
  in
  go 6

let print_table title rows =
  Printf.printf "== %s\n" title;
  List.iter
    (fun m -> Printf.printf "  %-40s %16s %-9s %s\n" m.name (number m.value) m.unit m.note)
    rows;
  flush stdout
