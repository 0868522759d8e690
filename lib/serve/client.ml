(* R403: this client blocks by design, on the caller's own thread: the
   CLI's main domain, or a domain a test or the bench spawns to play one
   client ([Domain.spawn], not a pool worker).  Never call it from a
   pool task. *)
[@@@nldl.allow "R403"]

(* [out] is the request buffer, kept across requests and grown to fit:
   each line and its newline are copied into it once and sent by one
   [Unix.write] (more only if the kernel takes part of it). *)
type t = { fd : Unix.file_descr; ic : in_channel; mutable out : Bytes.t }

let connect_unix path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  { fd; ic = Unix.in_channel_of_descr fd; out = Bytes.create 256 }

let request t line =
  let len = String.length line + 1 in
  if Bytes.length t.out < len then t.out <- Bytes.create (max len (2 * Bytes.length t.out));
  Bytes.blit_string line 0 t.out 0 (len - 1);
  Bytes.set t.out (len - 1) '\n';
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write t.fd t.out !off (len - !off)
  done;
  input_line t.ic

let close t = try close_in t.ic with Sys_error _ -> ()
