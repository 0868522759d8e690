(** The one table type of the experiments: every driver returns its
    results as {!t} values, and the text report, [--csv], [--json] and
    the bench all render those same cells. *)

type cell =
  | Int of int
  | Float of float * int  (** value, significant digits shown in text *)
  | Text of string

type t = {
  title : string;
  header : string list;
  rows : cell list list;  (** each as wide as [header] *)
}

val render : t -> string
(** A [=== title ===] banner, the header, a rule and the rows, columns
    padded to their widest cell; [Float (v, d)] shows as [%.*g].  Numbers are right-aligned and text
    left-aligned; the header follows its column's first row.  Raises
    [Invalid_argument] when a row's width differs from the header's. *)

val print : t -> unit
(** {!render} to [stdout], then flush. *)
