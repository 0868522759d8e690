(* Flat float64 buffer on a Bigarray backing store.

   The matrix layer keeps its numeric payloads here instead of on
   [float array]: the data block lives outside the OCaml heap, so
   creating, filling and dropping large buffers costs the GC a
   custom-block header (a few words) rather than [n] major-heap words,
   and the scanners never trace the payload.  Access compiles to direct
   float64 loads/stores — no boxing on get/set in native code, same as a
   [float array].

   Only 1-D buffers exist; 2-D users (matrices) keep explicit [rows] /
   [cols] and index row-major at [i * cols + j].  That keeps every
   consumer on one layout — the same flat, offset-based convention as
   [Scatter.offsets] — instead of growing a zoo of view types. *)

type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let create n =
  if n < 0 then invalid_arg "Fbuf.create: negative length";
  let b = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  Bigarray.Array1.fill b 0.;
  b

(* [external] re-declarations of the Bigarray primitives rather than
   wrapper functions: a cross-module wrapper call returns its float
   boxed (no flambda to inline it away), which would put two words back
   on the minor heap per read — the exact overhead this module exists
   to remove.  As externals, callers compile every access to a direct
   unboxed float64 load/store. *)
external length : t -> int = "%caml_ba_dim_1"
external get : t -> int -> float = "%caml_ba_ref_1"
external set : t -> int -> float -> unit = "%caml_ba_set_1"
external unsafe_get : t -> int -> float = "%caml_ba_unsafe_ref_1"
external unsafe_set : t -> int -> float -> unit = "%caml_ba_unsafe_set_1"
