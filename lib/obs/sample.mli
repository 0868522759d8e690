(** Deterministic sampling for bounded trace/timeline exports.

    Both primitives are replayable — the set of kept elements is a
    pure function of the constructor arguments and the offered stream —
    and both keep explicit seen/kept accounting so exporters can state
    exactly how much was dropped (no silent truncation). *)

type every
(** Systematic 1-in-k sampler (keeps elements 0, k, 2k, ...). *)

val every : int -> every
(** [every k] keeps one element in [k].  Raises [Invalid_argument] when
    [k < 1].  [every 1] keeps everything. *)

val keep : every -> bool
(** Decide the next element; zero allocation, safe in hot loops. *)

val seen : every -> int
val kept : every -> int

val stride : budget:int -> int -> int
(** [stride ~budget n] is the smallest [k] for which [every k] keeps at
    most [budget] of [n] elements: 1 when [n <= budget], otherwise
    [ceil (n / budget)].  Raises [Invalid_argument] when [budget < 1]. *)

type 'a reservoir
(** Uniform fixed-capacity reservoir (algorithm R) over a stream of
    unknown length, driven by a private splitmix64 state. *)

val reservoir : seed:int -> capacity:int -> 'a reservoir
val offer : 'a reservoir -> 'a -> unit
val reservoir_seen : 'a reservoir -> int
val reservoir_kept : 'a reservoir -> int

val contents : 'a reservoir -> 'a list
(** Kept elements in slot order (deterministic; not stream order once
    the reservoir has wrapped). *)
