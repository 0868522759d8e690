(** Flat float64 buffer — Bigarray [float64] [c_layout] 1-D backing for
    the matrix hot paths.

    The payload lives outside the OCaml heap: allocating, filling and
    dropping a buffer costs the GC only a custom-block header, and
    neither minor collections nor the major scanner ever touch the
    data.  Native-code access is a direct float64 load/store, unboxed
    like a [float array].

    2-D consumers (matrices) keep explicit [rows]/[cols] and address
    row-major cell [(i, j)] at offset [i * cols + j] — one flat layout
    shared with the [Scatter.offsets] convention, no view types.

    [unsafe_get]/[unsafe_set] skip bounds checks; they are for audited
    [\[@@@nldl.unsafe_zone\]] modules that validate their index ranges
    once up front. *)

type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : int -> t
(** Zero-filled buffer of the given length (length 0 is fine).  Raises
    [Invalid_argument] on a negative length. *)

(** The accessors are [external] re-declarations of the Bigarray
    primitives (not [val]s): exposed as functions they would compile to
    cross-module calls that box the float on every read, which is the
    overhead this module exists to remove.  As externals every access is
    a direct unboxed float64 load/store at the call site. *)

external length : t -> int = "%caml_ba_dim_1"

external get : t -> int -> float = "%caml_ba_ref_1"
(** Bounds-checked. *)

external set : t -> int -> float -> unit = "%caml_ba_set_1"
(** Bounds-checked. *)

external unsafe_get : t -> int -> float = "%caml_ba_unsafe_ref_1"
external unsafe_set : t -> int -> float -> unit = "%caml_ba_unsafe_set_1"
