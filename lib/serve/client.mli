(** Minimal blocking client for the daemon's line protocol, used by the
    serve tests, the bench and [nldl query --socket]. *)

type t

val connect_unix : string -> t
(** Raises [Unix.Unix_error] when nothing listens, after closing the
    socket it opened. *)

val request : t -> string -> string
(** Send one request line (newline appended) and block for the
    response line (returned without the newline).  Raises
    [End_of_file] if the daemon closes the connection first. *)

val close : t -> unit
