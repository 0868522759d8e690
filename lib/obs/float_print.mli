(** Exact decimal rendering of doubles for {!Json.float_compact},
    without libc's three round trips.  Private to [obs]. *)

val max_length : int
(** No rendering is longer: 32 bytes. *)

val write : Bytes.t -> float -> int
(** [write b f] puts the rendering of [f] at the start of [b] (at least
    {!max_length} long) and returns its length, allocating nothing
    unless the digits need libc's tie rules. *)

val render : float -> string
(** [render f] is byte-for-byte [Printf.sprintf "%.15g" f] when that
    parses back to [f], else [Printf.sprintf "%.17g" f] (glibc rounds
    exact decimal ties to even).  [f] must be finite. *)
