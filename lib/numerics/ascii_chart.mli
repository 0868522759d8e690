(** Minimal ASCII line charts so the benchmark harness can show the
    *shape* of each paper figure directly in the terminal. *)

type series = { label : string; points : (float * float) array }

val render :
  ?width:int -> ?height:int -> ?title:string -> series list -> string
(** Renders all series on a shared scale; each series is drawn with its
    own marker character ([0]..[9] then [a]..).  Returns the multi-line
    chart followed by a legend.  Empty input yields an empty string. *)
