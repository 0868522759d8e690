(* An [nldl serve] daemon under test, run as a child process in a
   private socket directory, and the closed-loop client that loads it. *)

module Json = Obs.Json

type t = { pid : int; dir : string; socket : string; traced : bool }

(* Daemons started and not yet stopped, killed by {!kill_all} when a
   run aborts. *)
let live : t list ref = ref []

let now_ns = Obs.Clock.now_ns

let control c line =
  match Json.of_string (Serve.Client.request c line) with
  | Ok j -> j
  | Error e -> failwith ("daemon: unparsable control reply: " ^ e)

(* Ready means the first [ping] is answered. *)
let wait_ready socket =
  let give_up = now_ns () + 30_000_000_000 in
  let rec go () =
    match Serve.Client.connect_unix socket with
    | c ->
        let reply = Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> Serve.Client.request c {|{"control":"ping"}|}) in
        if reply <> {|{"control":"pong"}|} then failwith ("daemon: bad ping reply " ^ reply)
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when now_ns () < give_up ->
        Unix.sleepf 0.002;
        go ()
  in
  go ()

(* [dir] is relative to the working directory, which the daemon
   inherits: socket paths stay short however deep the checkout is. *)
let start ~nldl ~dir ~traced =
  Unix.mkdir dir 0o700;
  let socket = Filename.concat dir "d.sock" in
  let args =
    [ nldl; "serve"; "--socket"; socket; "--domains"; "2" ]
    @
    if traced then
      [ "--metrics"; Filename.concat dir "metrics.json"; "--trace"; Filename.concat dir "trace.json" ]
    else []
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid = Unix.create_process nldl (Array.of_list args) null null Unix.stderr in
  Unix.close null;
  let d = { pid; dir; socket; traced } in
  live := d :: !live;
  wait_ready socket;
  d

let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  let lines = In_channel.with_open_text path In_channel.input_lines in
  match List.find_opt (fun l -> String.starts_with ~prefix:"VmHWM:" l) lines with
  | Some l -> Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
  | None -> failwith ("no VmHWM in " ^ path)

let stats d =
  let c = Serve.Client.connect_unix d.socket in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> control c {|{"control":"stats"}|})

(* Shut down over the protocol, reap the child and check it left
   nothing behind.  Returns the daemon's metrics snapshot when traced.
   Any leftover (a live process, the socket, a bad exit) raises. *)
let stop d =
  let c = Serve.Client.connect_unix d.socket in
  let reply = Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> Serve.Client.request c {|{"control":"shutdown"}|}) in
  if reply <> {|{"control":"ok"}|} then failwith ("daemon: bad shutdown reply " ^ reply);
  let give_up = now_ns () + 20_000_000_000 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now_ns () < give_up ->
        Unix.sleepf 0.005;
        reap ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid);
        failwith "daemon: still running 20 s after shutdown"
    | _, Unix.WEXITED 0 -> ()
    | _, _ -> failwith "daemon: exited abnormally"
  in
  reap ();
  live := List.filter (fun d' -> d' != d) !live;
  if Sys.file_exists d.socket then failwith "daemon: socket left behind after shutdown";
  let snapshot =
    if not d.traced then None
    else begin
      let m = Filename.concat d.dir "metrics.json" in
      let j = In_channel.with_open_text m In_channel.input_all in
      List.iter (fun f -> Sys.remove (Filename.concat d.dir f)) [ "metrics.json"; "trace.json" ];
      match Json.of_string j with Ok j -> Some j | Error e -> failwith ("daemon metrics: " ^ e)
    end
  in
  Unix.rmdir d.dir;
  snapshot

(* Kill without ceremony, for the error path only. *)
let kill_one d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  List.iter (fun f -> try Sys.remove (Filename.concat d.dir f) with Sys_error _ -> ()) [ "d.sock"; "metrics.json"; "trace.json" ];
  try Unix.rmdir d.dir with Unix.Unix_error _ -> ()

let kill_all () =
  List.iter kill_one !live;
  live := []

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd b !off (len - !off)
  done

(* Closed loop over [conns] connections: each sends its next request
   only once the previous reply has arrived.  [next ()] gives the next
   request as [(id, line)], or [None] when the stream is over;
   [reply id line rtt_ns] sees every answer.  No request is sent after
   [until_ns]; the loop then drains what is in flight.  A connection the
   daemon drops costs its in-flight request ([dropped id]) and is
   reopened.  Returns the wall time from the first send to the last
   reply. *)
let closed_loop d ~conns ~until_ns ~next ~reply ~dropped =
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX d.socket);
    fd
  in
  let fds = Array.init conns (fun _ -> connect ()) in
  let pending = Array.make conns (-1) in
  let sent_at = Array.make conns 0 in
  let bufs = Array.init conns (fun _ -> Buffer.create 4096) in
  let chunk = Bytes.create 65536 in
  let in_flight = ref 0 in
  let rec send i =
    if now_ns () < until_ns then
      match next () with
      | None -> ()
      | Some (id, line) -> (
          pending.(i) <- id;
          sent_at.(i) <- now_ns ();
          incr in_flight;
          try write_all fds.(i) (line ^ "\n")
          with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> lost i)
  and lost i =
    decr in_flight;
    dropped pending.(i);
    (try Unix.close fds.(i) with Unix.Unix_error _ -> ());
    Buffer.clear bufs.(i);
    fds.(i) <- connect ();
    send i
  in
  let t0 = now_ns () in
  Array.iteri (fun i _ -> send i) fds;
  let last = ref t0 in
  let read_ready i =
    match Unix.read fds.(i) chunk 0 (Bytes.length chunk) with
    | 0 | (exception Unix.Unix_error (Unix.ECONNRESET, _, _)) -> lost i
    | n ->
        let b = bufs.(i) in
        for k = 0 to n - 1 do
          let ch = Bytes.get chunk k in
          if ch = '\n' then begin
            let t = now_ns () in
            let line = Buffer.contents b in
            Buffer.clear b;
            decr in_flight;
            last := t;
            reply pending.(i) line (t - sent_at.(i));
            send i
          end
          else Buffer.add_char b ch
        done
  in
  while !in_flight > 0 do
    let ready, _, _ =
      try Unix.select (Array.to_list fds) [] [] 10.0
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if ready = [] && now_ns () > until_ns + 30_000_000_000 then failwith "daemon: no reply for 30 s";
    Array.iteri (fun i fd -> if List.memq fd ready then read_ready i) fds
  done;
  Array.iter Unix.close fds;
  Obs.Clock.ns_to_s (!last - t0)
