(** Communication model of 2.5D matrix multiplication
    (Solomonik & Demmel, the "notable exception" of Section 4.2).

    With [c]-fold replication of the inputs over a
    [√(p/c) × √(p/c) × c] processor grid, each processor moves
    [O(n²/√(c·p))] words instead of [O(n²/√p)] — communication traded
    for memory.  This module provides the volume model (not an
    execution) and the optimal replication factor. *)

type model = {
  p : int;
  c : int;  (** replication factor *)
  n : int;
  per_processor : float;  (** words sent/received per processor *)
  total : float;  (** including the initial input replication *)
  replication : float;  (** words spent copying the inputs [c] times *)
  memory_factor : float;  (** memory used relative to 2D ([= c]) *)
}

val evaluate : p:int -> c:int -> n:int -> model
(** Raises [Invalid_argument] unless [1 <= c] and [c <= p^(1/3)]
    (beyond [c = p^(1/3)] the algorithm stops improving) and [p/c] is
    a perfect square. *)

val speedup_over_2d : p:int -> c:int -> n:int -> float
(** Ratio of 2D ([c = 1]) to 2.5D per-processor volume: [√c]. *)
