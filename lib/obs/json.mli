(** Minimal JSON values: the one emitter shared by the bench artifact,
    the Chrome trace exporter and the metrics snapshot, plus a parser
    for the same subset so tests can validate emitted files without
    external tools. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Pretty-printed, 2-space indent, trailing newline.  Non-finite
    floats are emitted as [null] (JSON has no NaN/inf), and [-0.] as
    [-0.0], like {!to_compact}. *)

val to_compact : t -> string
(** Single-line rendering with no whitespace and lossless floats
    ({!float_compact}), for the line-delimited query-plane wire format.
    Non-finite floats emit as [null], like {!to_string}.  [-0.] emits
    as [-0.0]: libc's [-0] would read back as [Int 0], so this is what
    makes every finite float round-trip through {!of_string}.  Each
    float's digits are written in place, with no allocation per
    float. *)

val float_compact : float -> string
(** The float rendering {!to_compact} uses for every float but [-0.]
    (which stays libc's [-0] here): the correctly rounded
    [%.15g] text when it parses back to the same double, else [%.17g]
    (exact decimal ties round to even, as in glibc); ["null"] for NaN
    and infinities.  Lossless, but not always the shortest decimal that
    parses back: [5e-324] renders as [4.94065645841247e-324].  The
    digits are generated without libc, byte-identical to the [sprintf]
    rule. *)

val write_file : string -> t -> unit

val of_string : string -> (t, string) result
(** Parse a complete JSON document, scanning it in place.  A number
    that [int_of_string_opt] accepts (digits, an optional sign, no
    overflow) is an [Int]; any other in strtod's decimal grammar is a
    [Float], correctly rounded: directly when it has at most 15
    significant digits and a decimal exponent of at most 22 in
    magnitude (Clinger's fast path, exact by construction), through
    [float_of_string_opt] otherwise.  Errors name the offset where
    parsing stopped. *)

val member : string -> t -> t option
(** [member key (Obj fields)] is the value bound to [key]; [None] for
    missing keys and non-objects. *)
