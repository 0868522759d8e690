(** Image filtering — one of the classical linear-complexity DLT
    applications (paper §1.1, refs [11, 12]): the cost is proportional
    to the number of pixels, so the workload is genuinely divisible.

    The image is cut into horizontal bands sized by the linear-DLT
    allocation; each worker needs its band plus a halo of
    [kernel radius] rows on each side (the only data dependency), so the
    communication overhead of the split is exactly the halo volume. *)

type kernel = float array array
(** Square convolution kernel with odd side. *)

val box_blur : int -> kernel
(** Normalized [size × size] averaging kernel (odd [size]). *)

type distribution = {
  bands : (int * int) array;  (** per worker: first row, row count *)
  halo_rows : int;  (** total extra rows shipped as halo *)
  communication : float;  (** pixels sent, bands + halos *)
  makespan : float;  (** parallel-link model: transfer then compute *)
  result : Linalg.Matrix.t;  (** assembled output: the whole image convolved, zero-padded *)
}

val distribute :
  Platform.Star.t -> Linalg.Matrix.t -> kernel:kernel -> distribution
(** Split the image rows with {!Dlt.Linear.parallel_allocation}
    (cost ∝ pixels), execute each band (with halos) and reassemble.
    Raises [Invalid_argument] if the image has fewer rows than
    workers. *)
