(** Integer rectangular zones of an [n × n] computation domain: the
    concrete, index-level realization of a unit-square {!Partition.Layout}
    (areas can only be proportional to speeds up to integer rounding). *)

type t = { row0 : int; rows : int; col0 : int; cols : int }

val half_perimeter : t -> int

val of_column_assignment :
  areas:float array -> Partition.Column_partition.assignment -> n:int -> t array
(** Realize a column-based assignment on the integer [n × n] grid:
    column widths and per-column heights are apportioned by largest
    remainder, so the zones tile the domain exactly.  [result.(i)] is
    the zone of [areas.(i)].  Requires [n >= 1]. *)

val for_platform : Platform.Star.t -> n:int -> t array
(** PERI-SUM zones with areas proportional to worker speeds: the
    Heterogeneous Blocks distribution at index level. *)

val uniform_grid : p:int -> n:int -> t array
(** A near-square [q × r] grid of equal zones for [p = q·r] workers
    (requires [p] to admit such a factorization close to square; any
    [p >= 1] works since [1 × p] is always available — the most square
    factorization is chosen). *)

val validate_tiling : n:int -> t array -> (unit, string) result
(** Every cell of the [n × n] domain covered exactly once. *)

val half_perimeter_sum : t array -> int
