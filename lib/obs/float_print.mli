(** Exact decimal rendering of doubles for {!Json.float_compact},
    without libc's three round trips.  Private to [obs]. *)

val render : float -> string
(** [render f] is byte-for-byte [Printf.sprintf "%.15g" f] when that
    parses back to [f], else [Printf.sprintf "%.17g" f] (glibc rounds
    exact decimal ties to even).  [f] must be finite. *)
