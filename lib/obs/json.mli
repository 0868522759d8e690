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
    floats are emitted as [null] (JSON has no NaN/inf). *)

val to_compact : t -> string
(** Single-line rendering with no whitespace and lossless floats (the
    shortest decimal that parses back to the same value), for the
    line-delimited query-plane wire format.  Non-finite floats emit as
    [null], like {!to_string}. *)

val float_compact : float -> string
(** The float rendering {!to_compact} uses: the [%.15g] form when it
    parses back to the same double, else [%.17g]; ["null"] for NaN and
    infinities. *)

val write_file : string -> t -> unit

val of_string : string -> (t, string) result
(** Parse a complete JSON document.  Numbers without [.], [e] or
    overflow parse as [Int], others as [Float]. *)

val member : string -> t -> t option
(** [member key (Obj fields)] is the value bound to [key]; [None] for
    missing keys and non-objects. *)
