(** [Obs.Json.float_compact] as libc computes it: [%.15g] when that
    parses back to the same double, else [%.17g]; ["null"] for NaN and
    infinities.

    Frozen test oracle: [Test_json_codec] checks the pure-OCaml digit
    generator behind [Obs.Json.float_compact] byte for byte against it.
    Slow and simple on purpose; do not optimise. *)

val render : float -> string
