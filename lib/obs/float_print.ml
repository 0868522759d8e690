(* The digit generator behind Json.float_compact.

   The rule it reproduces is libc's: the correctly rounded [%.15g] text
   when that parses back to the same double, else [%.17g].  For a finite
   non-zero [f = m * 2^e] (2^52 <= m < 2^53) and k = floor(log10 |f|),
   the scaled value v = |f| * 10^(16-k) lies in [10^16, 10^17), and

   - the 17 significant digits are D17 = round(v);
   - the 15 significant digits are D15 = round(v / 100);
   - the 15-digit text parses back to f exactly when 100 * D15 lies
     strictly inside f's rounding interval, i.e. within half an ulp of
     f scaled into v's units (half of that below a power of two, where
     the next double down is closer).

   v is computed as an integer plus a fraction from a double-double
   table of powers of ten.  For 10^0 .. 10^22 the table is exact, so v
   is exact and only a true tie (a fraction of exactly 1/2, a remainder
   of exactly 50, or a decimal exactly halfway between two doubles)
   needs libc's round-half-even / strtod rules.  Elsewhere every entry
   is within 2^-104 relative of 10^E (measured against exact
   rationals; the worst is 2^-104.3 at E = -252), so v is off by less
   than 2^-46, and a decision within [margin] of its boundary is not
   trusted.  Those ties and near-ties, and the rare value whose scaling
   lands outside [10^16, 10^17), take the three-call libc path, so the
   output is exact by construction. *)

[@@@nldl.domain_safe "the powers-of-ten tables are written once at module initialisation and read-only after"]

let libc f =
  let s = Printf.sprintf "%.15g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

(* 10^E ~= (hi + lo) * 2^pow2 with hi in [1, 2), for E in [e_min, e_max]:
   the wire's decimal exponents run from -324 to 308, so E = 16 - k runs
   from -292 to 340. *)
let e_min = -360
let e_max = 360
let hi = Array.make (e_max - e_min + 1) 1.
let lo = Array.make (e_max - e_min + 1) 0.
let pow2 = Array.make (e_max - e_min + 1) 0

(* Store s + t (|t| <= ulp(s)/2, s > 0) rescaled by a power of two. *)
let store i s t b =
  let _, x = Float.frexp s in
  hi.(i) <- Float.ldexp s (1 - x);
  lo.(i) <- Float.ldexp t (1 - x);
  pow2.(i) <- b + x - 1

(* Steps of x10 and /10 whose products and remainders are exact by
   fma; the entries for 10^0 .. 10^22 (5^22 < 2^53) stay exact. *)
let () =
  for i = -e_min + 1 to e_max - e_min do
    let h = hi.(i - 1) and l = lo.(i - 1) in
    let p = h *. 10. in
    let q = Float.fma l 10. (Float.fma h 10. (-.p)) in
    let s = p +. q in
    store i s (q -. (s -. p)) pow2.(i - 1)
  done;
  for i = -e_min - 1 downto 0 do
    let h = hi.(i + 1) and l = lo.(i + 1) in
    let q1 = h /. 10. in
    let q2 = (Float.fma (-.q1) 10. h +. l) /. 10. in
    let s = q1 +. q2 in
    store i s (q2 -. (s -. q1)) pow2.(i + 1)
  done

let exact_lo = -e_min
let exact_hi = 22 - e_min

(* Far above v's error (2^-46), far below what a random value hits. *)
let margin = 1e-7

let ipow10 =
  let a = Array.make 18 1 in
  for n = 1 to 17 do
    a.(n) <- 10 * a.(n - 1)
  done;
  a

(* The two ASCII digits of k < 100 as one little-endian 16-bit store. *)
let digit_pairs = Array.init 100 (fun k -> 48 + (k / 10) + ((48 + (k mod 10)) lsl 8))

(* The [n] low decimal digits of [d], ending at [b.[last]]. *)
let put_digits b last d n =
  let d = ref d and pos = ref (last - 1) in
  for _ = 1 to n / 2 do
    Bytes.set_uint16_le b !pos digit_pairs.(!d mod 100);
    d := !d / 100;
    pos := !pos - 2
  done;
  if n land 1 = 1 then Bytes.set b (!pos + 1) (Char.chr (48 + !d))

(* [put_digits] on the magnitude negated, which also represents
   [min_int]. *)
let write_int b i =
  let neg = i < 0 in
  let m = if neg then i else -i in
  let n = ref 1 and q = ref (m / 10) in
  while !q <> 0 do
    incr n;
    q := !q / 10
  done;
  let s = Bool.to_int neg and m = ref m in
  if neg then Bytes.set b 0 '-';
  let pos = ref (s + !n - 2) in
  for _ = 1 to !n / 2 do
    Bytes.set_uint16_le b !pos digit_pairs.(-(!m mod 100));
    m := !m / 100;
    pos := !pos - 2
  done;
  if !n land 1 = 1 then Bytes.set b s (Char.chr (48 - !m));
  s + !n

(* The [count] digits written one place right of [first] move left, and
   a point follows them. *)
let point_after b ~first ~count =
  for j = first to first + count - 1 do
    Bytes.set b j (Bytes.get b (j + 1))
  done;
  Bytes.set b (first + count) '.'

(* Write [%.{p}g] of (-1)^neg * d * 10^(x-p+1) at the start of [b] and
   return its length; d has p digits or is 10^p after a rounding
   carry. *)
let format b neg d p x =
  let carry = d = ipow10.(p) in
  let d = ref (if carry then ipow10.(p - 1) else d) and x = if carry then x + 1 else x in
  (* Strip trailing zeros eight at a time, then four, two and one: an
     integer-valued speed costs five divisions rather than fifteen. *)
  let n = ref p in
  while !d mod 100_000_000 = 0 do
    d := !d / 100_000_000;
    n := !n - 8
  done;
  if !d mod 10_000 = 0 then begin
    d := !d / 10_000;
    n := !n - 4
  end;
  if !d mod 100 = 0 then begin
    d := !d / 100;
    n := !n - 2
  end;
  if !d mod 10 = 0 then begin
    d := !d / 10;
    n := !n - 1
  end;
  let d = !d and n = !n and s = Bool.to_int neg in
  if neg then Bytes.set b 0 '-';
  if x < -4 || x >= p then begin
    (* d[.ddd]e+XX *)
    let ax = abs x in
    let epos = s + n + Bool.to_int (n > 1) in
    let len = epos + if ax >= 100 then 5 else 4 in
    if n > 1 then begin
      put_digits b (s + n) d n;
      point_after b ~first:s ~count:1
    end
    else put_digits b s d 1;
    Bytes.set b epos 'e';
    Bytes.set b (epos + 1) (if x < 0 then '-' else '+');
    put_digits b (len - 1) ax (len - epos - 2);
    len
  end
  else if x < 0 then begin
    (* 0.000ddd *)
    let len = s + 1 - x + n in
    Bytes.fill b s (len - s) '0';
    Bytes.set b (s + 1) '.';
    put_digits b (len - 1) d n;
    len
  end
  else if n <= x + 1 then begin
    (* ddd000 *)
    let len = s + x + 1 in
    Bytes.fill b s (len - s) '0';
    put_digits b (s + n - 1) d n;
    len
  end
  else begin
    (* ddd.ddd *)
    put_digits b (s + n) d n;
    point_after b ~first:s ~count:(x + 1);
    s + n + 1
  end

let copy b text =
  Bytes.blit_string text 0 b 0 (String.length text);
  String.length text

let rec subnormal_shift m s = if m >= 1 lsl 52 then s else subnormal_shift (m lsl 1) (s + 1)

let max_length = 32

(* 2^j for the small j the scalings below use: exact, and one multiply. *)
let two = Array.init 257 (fun j -> Float.ldexp 1. (j - 128))
let[@inline] scale x j = if j >= -128 && j <= 128 then x *. two.(j + 128) else Float.ldexp x j

let write b f =
  if Float.classify_float f = FP_zero then copy b (if Float.sign_bit f then "-0" else "0")
  else
    let bits = Int64.to_int (Int64.bits_of_float f) in
    let be = (bits lsr 52) land 0x7ff and fr = bits land 0xf_ffff_ffff_ffff in
    (* f = m * 2^e with m normalised; its ulp is 2^e_ulp. *)
    let sh = if be = 0 then subnormal_shift fr 0 else 0 in
    let m = (if be = 0 then fr else fr lor (1 lsl 52)) lsl sh in
    let e_ulp = if be = 0 then -1074 else be - 1075 in
    let e = e_ulp - sh in
    let mf = float_of_int m in
    (* floor(log10 2^(e+52)) is k or k - 1 (Ryu's log10Pow2). *)
    let k0 = ((e + 52) * 315653) asr 20 in
    let i0 = 16 - k0 - e_min in
    let up = scale (mf *. hi.(i0)) (e + pow2.(i0)) >= 1e17 in
    let k = if up then k0 + 1 else k0 and i = if up then i0 - 1 else i0 in
    let h = hi.(i) and l = lo.(i) and sc = e + pow2.(i) in
    let p = mf *. h in
    let q = Float.fma mf l (Float.fma mf h (-.p)) in
    let a = scale p sc and c = scale q sc in
    let vh = a +. c in
    let vl = c -. (vh -. a) in
    let fl = Float.floor vl in
    let frac = vl -. fl in
    let n = int_of_float vh + int_of_float fl in
    (* n >= 10^16 needs vh > 2^53, an integer, so then v = n + frac
       exactly. *)
    if n < ipow10.(16) || n >= ipow10.(17) then copy b (libc f)
    else
      let err = if i >= exact_lo && i <= exact_hi then 0. else margin in
      let r = float_of_int (n mod 100) +. frac in
      if Float.abs (frac -. 0.5) <= err || Float.abs (r -. 50.) <= err then copy b (libc f)
      else
        let d15 = (n / 100) + Bool.to_int (r > 50.) in
        (* 100 * d15 - n is tiny; 17-digit values exceed 2^53, so take
           the difference in int before converting. *)
        let diff = float_of_int ((100 * d15) - n) -. frac in
        let half = scale h (pow2.(i) + e_ulp - 1) in
        let half = if diff < 0. && fr = 0 && be > 1 then half *. 0.5 else half in
        let gap = Float.abs diff -. half in
        if Float.abs gap <= err then copy b (libc f)
        else if gap < 0. then format b (f < 0.) d15 15 k
        else format b (f < 0.) (n + Bool.to_int (frac > 0.5)) 17 k

let render f =
  let b = Bytes.create max_length in
  Bytes.sub_string b 0 (write b f)
