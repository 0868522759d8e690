(** The heterogeneous master/worker star platform of Section 1.2: a
    master [P0] holding the data, and [p] workers [P1..Pp] reachable over
    independent links (parallel-communication model) or a shared
    outgoing port (one-port model, used by the classical DLT variants).

    Workers are stored sorted by non-decreasing speed, the convention
    used throughout Section 4 ([s1 <= s2 <= ... <= sp]). *)

type t

val create : Processor.t list -> t
(** Sorts the workers by non-decreasing speed.  Raises
    [Invalid_argument] on an empty list. *)

val of_speeds : ?bandwidth:float -> ?latency:float -> float list -> t
(** Workers with the given speeds and uniform link characteristics. *)

val size : t -> int
val workers : t -> Processor.t array
(** The workers sorted by non-decreasing speed.  The returned array is a
    copy; mutating it does not affect the platform. *)

val worker : t -> int -> Processor.t
(** [worker t i] is the [i]-th slowest worker, [0]-based. *)

val total_speed : t -> float
(** [Σ s_i]. *)

val relative_speeds : t -> float array
(** [x_i = s_i / Σ s_k]; sums to 1 (Section 4.1). *)

val speeds : t -> float array
val slowest : t -> Processor.t
val fastest : t -> Processor.t

val pp : Format.formatter -> t -> unit
