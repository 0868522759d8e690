(* R403: this client blocks by design, on the caller's own thread: the
   CLI's main domain, or a domain a test or the bench spawns to play one
   client ([Domain.spawn], not a pool worker).  Never call it from a
   pool task. *)
[@@@nldl.allow "R403"]

type t = { fd : Unix.file_descr; ic : in_channel }

let connect_unix path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  { fd; ic = Unix.in_channel_of_descr fd }

let write_all fd s =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd b !off (len - !off)
  done

let request t line =
  write_all t.fd (line ^ "\n");
  input_line t.ic

let close t = try close_in t.ic with Sys_error _ -> ()
