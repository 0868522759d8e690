(** Axis-aligned rectangles inside the unit computational domain.

    In Section 4.1 a processor assigned the rectangle
    [\[x, x+width\] × \[y, y+height\]] of the (normalized) outer-product
    domain receives [width + height] units of data (a slice of each
    input vector), i.e. its half-perimeter. *)

type t = { x : float; y : float; width : float; height : float }

val make : x:float -> y:float -> width:float -> height:float -> t
(** Raises [Invalid_argument] on negative dimensions. *)

val area : t -> float
val half_perimeter : t -> float

val x_max : t -> float
val y_max : t -> float

val contains : t -> x:float -> y:float -> bool
(** Closed on the low edges, open on the high edges, so that a tiling
    assigns every interior point to exactly one rectangle. *)

val intersection_area : t -> t -> float
val overlaps : ?tol:float -> t -> t -> bool
(** True when the open interiors intersect with area above [tol]. *)
