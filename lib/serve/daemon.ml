module Json = Obs.Json

(* R403: the accept loop runs on a dedicated I/O domain ([Domain.spawn]
   in [run], not a pool worker); blocking in select/accept/read is that
   domain's entire job.  Solver work is handed to the pool via
   [Batch], which never blocks. *)
[@@@nldl.allow "R403"]

type config = {
  socket_path : string;
  batch : Batch.config;
}

let default_socket_path () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "nldl-serve-%d.sock" (Unix.getpid ()))

type client = {
  fd : Unix.file_descr;
  buf : Buffer.t;  (* bytes received, not yet terminated by '\n' *)
}

(* One poll round: read whatever each ready client has, split complete
   lines off its buffer.  Returns the lines in arrival order tagged
   with their client, plus the clients that disconnected. *)
let drain_ready clients ready =
  let chunk = Bytes.create 65536 in
  let lines = ref [] in
  let closed = ref [] in
  List.iter
    (fun c ->
      if List.memq c.fd ready then
        match Unix.read c.fd chunk 0 (Bytes.length chunk) with
        | 0 -> closed := c :: !closed
        | n ->
            for i = 0 to n - 1 do
              let ch = Bytes.get chunk i in
              if ch = '\n' then begin
                lines := (c, Buffer.contents c.buf) :: !lines;
                Buffer.clear c.buf
              end
              else Buffer.add_char c.buf ch
            done
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
            closed := c :: !closed)
    clients;
  (List.rev !lines, !closed)

let write_all fd s =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let off = ref 0 in
  (try
     while !off < len do
       off := !off + Unix.write fd b !off (len - !off)
     done
   with Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ())

let control_of_line line =
  match Json.of_string line with
  | Ok (Json.Obj fields) -> (
      match List.assoc_opt "control" fields with
      | Some (Json.String c) -> Some c
      | _ -> None)
  | _ -> None

let pong = Json.to_compact (Json.Obj [ ("control", Json.String "pong") ])
let ok = Json.to_compact (Json.Obj [ ("control", Json.String "ok") ])

let unknown_control c =
  Api.Response.to_line
    (Api.Response.error ~code:"bad_request" (Printf.sprintf "unknown control %S" c))

let listen_unix path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let run ?pool ?(on_ready = fun () -> ()) cfg =
  let engine = Batch.create ?pool cfg.batch in
  let listener = listen_unix cfg.socket_path in
  let clients = ref [] in
  let running = ref true in
  on_ready ();
  while !running do
    let watched = listener :: List.map (fun c -> c.fd) !clients in
    match Unix.select watched [] [] 1.0 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
        if List.memq listener ready then begin
          match Unix.accept listener with
          | fd, _ -> clients := { fd; buf = Buffer.create 256 } :: !clients
          | exception Unix.Unix_error _ -> ()
        end;
        let lines, closed = drain_ready !clients ready in
        List.iter
          (fun c ->
            (try Unix.close c.fd with Unix.Unix_error _ -> ());
            clients := List.filter (fun c' -> c' != c) !clients)
          closed;
        (* Control lines answer immediately; the rest of the round's
           lines form one batch across all clients. *)
        let queries = ref [] in
        List.iter
          (fun (c, line) ->
            match control_of_line line with
            | Some "ping" -> write_all c.fd (pong ^ "\n")
            | Some "stats" ->
                write_all c.fd (Json.to_compact (Batch.stats_json engine) ^ "\n")
            | Some "shutdown" ->
                write_all c.fd (ok ^ "\n");
                running := false
            | Some other -> write_all c.fd (unknown_control other ^ "\n")
            | None -> queries := (c, line) :: !queries)
          lines;
        let queries = Array.of_list (List.rev !queries) in
        if Array.length queries > 0 then begin
          let answers = Batch.handle_batch engine (Array.map snd queries) in
          Array.iteri (fun i (c, _) -> write_all c.fd (answers.(i) ^ "\n")) queries
        end
  done;
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) !clients;
  (try Unix.close listener with Unix.Unix_error _ -> ());
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  engine
