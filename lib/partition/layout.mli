(** A partition of the unit square into per-processor rectangles — the
    Heterogeneous Blocks data distribution of Section 4.1.2. *)

type t = { rects : Rect.t array }
(** [rects.(i)] is the zone of worker [i] (platform order). *)

val areas : t -> float array

val sum_half_perimeters : t -> float
(** [Ĉ = Σ (w_i + h_i)]: the PERI-SUM objective, equal (up to the [N]
    scale factor) to the total communication volume. *)

val communication_volume : t -> n:float -> float
(** Data sent for an [n × n] outer-product domain: [n ·
    sum_half_perimeters]. *)

val validate : ?tol:float -> ?expected_areas:float array -> t -> (unit, string) result
(** Checks that rectangles stay inside the unit square, do not overlap,
    cover it (areas sum to 1), and — when [expected_areas] is given —
    that each worker's area matches its prescription (load balance). *)

val render : ?width:int -> ?height:int -> t -> string
(** ASCII rendering of the partition (each zone drawn with the marker of
    its worker index), used by the layout example (paper Figure 2). *)
