(* The wire codec's float rendering as it stood before Float_print:
   three libc round trips per value.  Frozen; see float_oracle.mli. *)

let render f =
  if not (Float.is_finite f) then "null"
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f
