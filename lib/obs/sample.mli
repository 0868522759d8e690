(** Deterministic sampling for bounded trace/timeline exports.

    The sampler is replayable — the set of kept elements is a pure
    function of [k] and the offered stream — and counts what it kept so
    exporters can state exactly how much was dropped (no silent
    truncation). *)

type every
(** Systematic 1-in-k sampler (keeps elements 0, k, 2k, ...). *)

val every : int -> every
(** [every k] keeps one element in [k].  Raises [Invalid_argument] when
    [k < 1].  [every 1] keeps everything. *)

val keep : every -> bool
(** Decide the next element; zero allocation, safe in hot loops. *)

val kept : every -> int

val stride : budget:int -> int -> int
(** [stride ~budget n] is the smallest [k] for which [every k] keeps at
    most [budget] of [n] elements: 1 when [n <= budget], otherwise
    [ceil (n / budget)].  Raises [Invalid_argument] when [budget < 1]. *)
