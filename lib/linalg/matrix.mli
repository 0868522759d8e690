(** Dense row-major float matrices — the substrate for the outer-product
    and matrix-multiplication experiments of Section 4.

    Backed by a flat {!Kernels.Fbuf} (Bigarray float64) buffer: the
    payload lives outside the OCaml heap, so creating and dropping
    matrices costs the GC a custom-block header rather than
    [rows * cols] heap words, and the distributed kernels run
    GC-silent. *)

type t

val create : rows:int -> cols:int -> t
(** Zero-filled.  Raises [Invalid_argument] on non-positive dims. *)

val init : rows:int -> cols:int -> (int -> int -> float) -> t
val random : Numerics.Rng.t -> rows:int -> cols:int -> t
(** Entries uniform in [\[-1, 1)]. *)

val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

val data : t -> Kernels.Fbuf.t
(** The row-major backing buffer (length [rows * cols]; element [(i, j)]
    at offset [i * cols + j]), shared with the matrix — writes are
    visible.  Exposed for the zero-allocation inner loops
    ([Matmul.distributed], [Outer_product], [Summa]) that validate
    their index ranges once up front instead of paying {!get}/{!set}
    bounds checks per flop. *)

val mul : t -> t -> t
(** Naive triple loop, [i k j] order for cache friendliness. *)

val outer : float array -> float array -> t
(** [outer a b] is the [|a| × |b|] matrix of all products [a_i·b_j]
    (Section 4.1). *)

val frobenius : t -> float
val max_abs_diff : t -> t -> float
val approx_equal : ?tol:float -> t -> t -> bool
(** Max-norm comparison with tolerance [tol] (default 1e-9) scaled by
    the magnitude of the entries. *)
