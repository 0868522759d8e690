(* Abramowitz & Stegun 7.1.26. *)
let erf x =
  let sign = if x < 0. then -1. else 1. in
  let x = Float.abs x in
  let t = 1. /. (1. +. (0.3275911 *. x)) in
  let a1 = 0.254829592 and a2 = -0.284496736 and a3 = 1.421413741 in
  let a4 = -1.453152027 and a5 = 1.061405429 in
  let poly = ((((((((a5 *. t) +. a4) *. t) +. a3) *. t) +. a2) *. t) +. a1) *. t in
  sign *. (1. -. (poly *. exp (-.x *. x)))

let normal_cdf ?(mu = 0.) ?(sigma = 1.) x =
  0.5 *. (1. +. erf ((x -. mu) /. (sigma *. sqrt 2.)))

(* Acklam's inverse normal CDF. *)
let normal_quantile p =
  if p <= 0. || p >= 1. then invalid_arg "Special.normal_quantile: p must be in (0,1)";
  let a =
    [| -39.69683028665376; 220.9460984245205; -275.9285104469687; 138.3577518672690;
       -30.66479806614716; 2.506628277459239 |]
  in
  let b =
    [| -54.47609879822406; 161.5858368580409; -155.6989798598866; 66.80131188771972;
       -13.28068155288572 |]
  in
  let c =
    [| -0.007784894002430293; -0.3223964580411365; -2.400758277161838;
       -2.549732539343734; 4.374664141464968; 2.938163982698783 |]
  in
  let d =
    [| 0.007784695709041462; 0.3224671290700398; 2.445134137142996; 3.754408661907416 |]
  in
  let p_low = 0.02425 in
  let x =
    if p < p_low then begin
      let q = sqrt (-2. *. log p) in
      (((((c.(0) *. q +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q +. c.(5))
      /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.)
    end
    else if p <= 1. -. p_low then begin
      let q = p -. 0.5 in
      let r = q *. q in
      (((((a.(0) *. r +. a.(1)) *. r +. a.(2)) *. r +. a.(3)) *. r +. a.(4)) *. r +. a.(5))
      *. q
      /. (((((b.(0) *. r +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r +. b.(4)) *. r +. 1.)
    end
    else begin
      let q = sqrt (-2. *. log (1. -. p)) in
      -.((((((c.(0) *. q +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q +. c.(5))
         /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.))
    end
  in
  (* One Newton refinement against the CDF. *)
  let e = normal_cdf x -. p in
  let u = e *. sqrt (2. *. Float.pi) *. exp (x *. x /. 2.) in
  x -. (u /. (1. +. (x *. u /. 2.)))
