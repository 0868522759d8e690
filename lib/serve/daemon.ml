module Json = Obs.Json

(* R403: the accept loop runs on the domain that calls [run] ([run]
   spawns nothing); blocking in select/accept/read/write is that
   domain's entire job.  Solver work is handed to the pool via [Batch],
   which never blocks. *)
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

let read_len = 65536

(* Append the complete lines of [chunk.[0 .. n-1]] to [lines] (newest
   first) and keep the unterminated tail in [c.buf].  [chunk] is one
   byte longer than any read, and a '\n' sentinel at [n] stops
   [Bytes.index_from] at the end of the bytes read. *)
let split_lines c chunk n lines =
  Bytes.set chunk n '\n';
  let rec go pos lines =
    let j = Bytes.index_from chunk pos '\n' in
    if j = n then begin
      Buffer.add_subbytes c.buf chunk pos (n - pos);
      lines
    end
    else if Buffer.length c.buf = 0 then
      go (j + 1) ((c, Bytes.sub_string chunk pos (j - pos)) :: lines)
    else begin
      Buffer.add_subbytes c.buf chunk pos (j - pos);
      let line = Buffer.contents c.buf in
      Buffer.clear c.buf;
      go (j + 1) ((c, line) :: lines)
    end
  in
  go 0 lines

(* One poll round: read whatever each ready client has, split complete
   lines off its buffer.  Returns the lines in arrival order tagged
   with their client (one client's lines are contiguous), plus the
   clients that disconnected. *)
let drain_ready chunk clients ready =
  let lines = ref [] in
  let closed = ref [] in
  List.iter
    (fun c ->
      if List.memq c.fd ready then
        match Unix.read c.fd chunk 0 read_len with
        | 0 -> closed := c :: !closed
        | n -> lines := split_lines c chunk n !lines
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
            closed := c :: !closed)
    clients;
  (Array.of_list (List.rev !lines), !closed)

(* Reply scratch, reused across rounds: a client's answers of one round
   are laid out with their '\n's and go out in one write. *)
type out = { mutable bytes : Bytes.t; mutable len : int }

let add_line out s =
  let need = out.len + String.length s + 1 in
  if need > Bytes.length out.bytes then begin
    let grown = Bytes.create (max need (2 * Bytes.length out.bytes)) in
    Bytes.blit out.bytes 0 grown 0 out.len;
    out.bytes <- grown
  end;
  Bytes.blit_string s 0 out.bytes out.len (String.length s);
  Bytes.set out.bytes (need - 1) '\n';
  out.len <- need

let flush_to fd out =
  let off = ref 0 in
  (try
     while !off < out.len do
       off := !off + Unix.write fd out.bytes !off (out.len - !off)
     done
   with Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ());
  out.len <- 0

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
  (* A client that closes before reading its answer must cost one EPIPE
     in [flush_to], not the process: SIGPIPE's default action kills it. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let engine = Batch.create ?pool cfg.batch in
  let listener = listen_unix cfg.socket_path in
  let clients = ref [] in
  let running = ref true in
  let chunk = Bytes.create (read_len + 1) in
  let out = { bytes = Bytes.create 4096; len = 0 } in
  let control = function
    | "ping" -> pong
    | "stats" -> Json.to_compact (Batch.stats_json engine)
    | "shutdown" ->
        running := false;
        ok
    | other -> unknown_control other
  in
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
        let lines, closed = drain_ready chunk !clients ready in
        List.iter
          (fun c ->
            (try Unix.close c.fd with Unix.Unix_error _ -> ());
            clients := List.filter (fun c' -> c' != c) !clients)
          closed;
        (* The round's lines, control lines included, form one batch
           across all clients; each client's answers go back in the
           order its lines arrived. *)
        let n = Array.length lines in
        if n > 0 then begin
          let answers = Batch.handle_batch ~control engine (Array.map snd lines) in
          for i = 0 to n - 1 do
            let c = fst lines.(i) in
            add_line out answers.(i);
            if i = n - 1 || fst lines.(i + 1) != c then flush_to c.fd out
          done
        end
  done;
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) !clients;
  (try Unix.close listener with Unix.Unix_error _ -> ());
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  engine
