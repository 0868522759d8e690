(** Aligned plain-text tables, used by the benchmark harness to print the
    rows of each reproduced figure. *)

type align = Left | Right

type t
(** A table under construction. *)

val create : headers:string list -> t
val add_row : t -> string list -> unit
(** Raises [Invalid_argument] if the row width differs from the header. *)

val set_align : t -> align list -> unit
(** Per-column alignment; default is [Right] everywhere. *)

val render : t -> string
val print : t -> unit
(** Render to [stdout] followed by a newline flush. *)
