(* serve_hot and serve_cold: an [nldl serve] daemon loaded by two
   closed-loop Unix-socket connections. *)

let conns = 2
let hot_distinct = 256

(* Enough distinct requests to fill the daemon's default 1024-entry
   cache, so the timed phase evicts from its first miss. *)
let cold_warm = 1024

let expected_line r = Api.Response.to_line (Api.Eval.eval r)

let is_answer line =
  match Obs.Json.of_string line with
  | Ok j -> (
      match Api.Response.of_json j with Ok r -> not (Api.Response.is_error r) | Error _ -> false)
  | Error _ -> false

(* What one timed block of traffic produced.  A reply that differs from
   the in-process answer, or a request lost with its connection, is a
   failure. *)
type block = {
  rtt_ns : Stat.samples;  (** one per reply *)
  mutable wall_s : float;
  mutable failed : int;
  mutable dropped : int;
  sent : int Stack.t;  (** serve_hot request ids in send order, for the in-process replay *)
}

let block () =
  { rtt_ns = Stat.samples (); wall_s = 0.; failed = 0; dropped = 0; sent = Stack.create () }

let replies b = Stat.count b.rtt_ns
let attempted b = replies b + b.dropped
let drop b _ =
  b.dropped <- b.dropped + 1;
  b.failed <- b.failed + 1

(* Send each of [lines] once; the warm-up passes. *)
let pass d lines =
  let i = ref 0 and bad = ref 0 in
  ignore
    (Daemon.closed_loop d ~conns ~until_ns:max_int
       ~next:(fun () ->
         if !i >= Array.length lines then None
         else begin
           incr i;
           Some (!i - 1, lines.(!i - 1))
         end)
       ~reply:(fun _ line _ -> if not (is_answer line) then incr bad)
       ~dropped:(fun _ -> incr bad));
  if !bad > 0 then failwith (Printf.sprintf "serve warm-up: %d failed requests" !bad)

(* --- serve_hot -------------------------------------------------------- *)

type hot = { traffic : Traffic.hot; daemon : Daemon.t }

(* Input generation, daemon ready, cache warm-up: one solve per query. *)
let setup_hot ~nldl ~dir ~traced ~seed =
  let traffic = Traffic.hot ~seed ~distinct:hot_distinct in
  let daemon = Daemon.start ~nldl ~dir ~traced in
  pass daemon (Array.mapi (fun q _ -> traffic.Traffic.spellings.(q * Traffic.n_spellings)) traffic.queries);
  { traffic; daemon }

(* The in-process answer for every spelling, computed once outside the
   timed phase.  [corrupt] spoils the most frequent query's canonical
   answer, so the self-test sees a wrong expected answer counted. *)
let hot_expected ~corrupt h =
  let e =
    Array.map
      (fun line ->
        match Api.Request.of_line line with
        | Ok r -> expected_line r
        | Error msg -> failwith ("serve_hot: generated line does not decode: " ^ msg))
      h.traffic.spellings
  in
  if corrupt then e.(0) <- e.(0) ^ " ";
  e

let run_hot h ~expected ~until_ns =
  let b = block () in
  b.wall_s <-
    Daemon.closed_loop h.daemon ~conns ~until_ns
      ~next:(fun () ->
        let s = Traffic.next_hot h.traffic in
        Stack.push s b.sent;
        Some (s, h.traffic.spellings.(s)))
      ~reply:(fun s line rtt ->
        Stat.add b.rtt_ns (float_of_int rtt);
        if not (String.equal line expected.(s)) then b.failed <- b.failed + 1)
      ~dropped:(drop b);
  b

(* --- serve_cold ------------------------------------------------------- *)

type cold = { stream : Traffic.cold; cdaemon : Daemon.t }

let setup_cold ~nldl ~dir ~traced ~seed =
  let warm = Traffic.cold ~seed ~warm:true in
  let lines = Array.init cold_warm (fun _ -> Traffic.line (Traffic.next_cold warm)) in
  let cdaemon = Daemon.start ~nldl ~dir ~traced in
  pass cdaemon lines;
  { stream = Traffic.cold ~seed ~warm:false; cdaemon }

(* Every request is new.  Requests and replies are kept, and checked
   against in-process answers after the timed phase ({!check_cold}), so
   checking never competes with the daemon for cores.  Request ids are
   stream positions. *)
type cold_log = { mutable reqs : Api.Request.t list; mutable got : (int * string) list }

let run_cold c ~until_ns =
  let b = block () in
  let log = { reqs = []; got = [] } in
  b.wall_s <-
    Daemon.closed_loop c.cdaemon ~conns ~until_ns
      ~next:(fun () ->
        let id = c.stream.Traffic.issued in
        let r = Traffic.next_cold c.stream in
        log.reqs <- r :: log.reqs;
        Some (id, Traffic.line r))
      ~reply:(fun id line rtt ->
        Stat.add b.rtt_ns (float_of_int rtt);
        log.got <- (id, line) :: log.got)
      ~dropped:(drop b);
  (b, log)

(* Count the wrong replies of a timed block. *)
let check_cold ~corrupt b log =
  let reqs = Array.of_list (List.rev log.reqs) in
  let pool = Exec.Pool.get_global ~at_least:2 () in
  let expected = Exec.Pool.parallel_map_array ~workers:2 pool expected_line reqs in
  if corrupt && Array.length expected > 0 then expected.(0) <- expected.(0) ^ " ";
  List.iter
    (fun (id, line) -> if not (String.equal line expected.(id)) then b.failed <- b.failed + 1)
    log.got
