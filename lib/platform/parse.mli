(** Text format for platform descriptions, so experiments can run
    against user-supplied machines.

    One worker per line: [speed [bandwidth [latency]]] (whitespace
    separated; bandwidth defaults to 1, latency to 0).  Blank lines and
    [#] comments are ignored. *)

val of_string : string -> (Star.t, string) result
(** Error messages carry the 1-based line number. *)

val of_file : string -> (Star.t, string) result
