(** Exact decimal rendering of doubles for {!Json.float_compact}, and of
    ints for both emitters, without libc's round trips.  Private to [obs]. *)

val max_length : int
(** No rendering is longer: 32 bytes. *)

val write : Bytes.t -> float -> int
(** [write b f] puts the rendering of [f] at the start of [b] (at least
    {!max_length} long) and returns its length, allocating nothing
    unless the digits need libc's tie rules. *)

val write_int : Bytes.t -> int -> int
(** [write_int b i] puts [string_of_int i] at the start of [b] (at least
    {!max_length} long) and returns its length, allocating nothing. *)

val render : float -> string
(** [render f] is byte-for-byte [Printf.sprintf "%.15g" f] when that
    parses back to [f], else [Printf.sprintf "%.17g" f] (glibc rounds
    exact decimal ties to even).  [f] must be finite. *)
