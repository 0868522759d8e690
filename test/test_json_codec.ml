(* The wire codec's byte-level contract.  Obs.Json.float_compact
   generates its digits in OCaml; the frozen libc rendering in
   Float_oracle is the specification.  Every case here demands byte
   equality: cache keys, CLI/daemon identity and the golden fixtures
   all depend on these exact strings. *)

let render = Obs.Json.float_compact

let check_same f =
  Alcotest.(check string) (Printf.sprintf "%h" f) (Float_oracle.render f) (render f)

let same f = String.equal (render f) (Float_oracle.render f)

(* Uniform 64-bit patterns: both signs, every exponent field (NaN and
   infinities included), subnormals at their natural 1-in-2048 rate. *)
let bits_gen =
  QCheck.Gen.(
    map2
      (fun hi lo -> Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo))
      (int_range 0 0xFFFF_FFFF) (int_range 0 0xFFFF_FFFF))

let arb_float_bits gen =
  QCheck.make ~print:(fun b -> Printf.sprintf "%h" (Int64.float_of_bits b)) gen

let qcheck_random_bits =
  QCheck.Test.make ~count:20_000 ~name:"float_compact = oracle on random bit patterns"
    (arb_float_bits bits_gen) (fun b -> same (Int64.float_of_bits b))

(* Exponent field zero: every subnormal width, both signs. *)
let qcheck_subnormal_bits =
  QCheck.Test.make ~count:5_000 ~name:"float_compact = oracle on subnormals"
    (arb_float_bits
       (QCheck.Gen.map (fun b -> Int64.logand b 0x800F_FFFF_FFFF_FFFFL) bits_gen))
    (fun b -> same (Int64.float_of_bits b))

let with_neighbours f = [ Float.pred f; f; Float.succ f ]

let fixed_table =
  [
    0.;
    -0.;
    5e-324;
    Float.pred 0x1p-1022 (* largest subnormal *);
    0x1p-1022 (* smallest normal *);
    Float.max_float;
    -.Float.max_float;
    Float.nan;
    Float.infinity;
    Float.neg_infinity;
    (* exact decimal ties: at the 15th digit, and at the 17th *)
    281474976710656.5;
    1125899906842624.25;
    0.1 +. 0.2;
    1. /. 3.;
  ]
  @ List.concat_map with_neighbours
      (List.init (308 + 323 + 1) (fun i -> float_of_string (Printf.sprintf "1e%d" (i - 323))))
  @ List.concat_map with_neighbours (List.init (1023 + 1074 + 1) (fun i -> Float.ldexp 1. (i - 1074)))

let test_fixed_table () =
  List.iter check_same fixed_table;
  List.iter (fun f -> check_same (-.f)) fixed_table

let test_ties () =
  (* glibc rounds exact decimal ties to even: the 15-digit tie gives
     281474976710656, which does not parse back, so 17 digits print; the
     17-digit tie drops its final 5. *)
  Alcotest.(check string) "15-digit tie" "281474976710656.5" (render 281474976710656.5);
  Alcotest.(check string) "17-digit tie" "1125899906842624.2" (render 1125899906842624.25)

(* The shapes perfbench traffic sends: uniform doubles and values on a
   3-decimal grid, over the magnitudes of speeds, loads and totals. *)
let test_traffic_sweep () =
  let rng = Numerics.Rng.create ~seed:17 () in
  let round3 x = Float.round (x *. 1000.) /. 1000. in
  let mismatches = ref 0 in
  let probe f = if not (same f) then incr mismatches in
  for _ = 1 to 25_000 do
    probe (Numerics.Rng.float rng);
    probe (Numerics.Rng.uniform rng 0.5 10_000.);
    probe (round3 (Numerics.Rng.uniform rng 0. 0.01));
    probe (round3 (Numerics.Rng.uniform rng 0.1 10_000.))
  done;
  Alcotest.(check int) "mismatches over 10^5 values" 0 !mismatches

let test_escapes () =
  (* A quote, a backslash, a newline and a control byte, in a key and a
     value, through both emitters; plain strings pass through whole. *)
  let doc = Obs.Json.Obj [ ("k\"", Obs.Json.String "q\"b\\s\nc\001"); ("plain", Obs.Json.String "x y") ] in
  Alcotest.(check string) "compact"
    {|{"k\"":"q\"b\\s\nc\u0001","plain":"x y"}|}
    (Obs.Json.to_compact doc);
  Alcotest.(check string) "pretty"
    "{\n  \"k\\\"\": \"q\\\"b\\\\s\\nc\\u0001\",\n  \"plain\": \"x y\"\n}\n"
    (Obs.Json.to_string doc);
  Alcotest.(check bool) "parses back" true
    (Obs.Json.of_string (Obs.Json.to_compact doc) = Ok doc)

(* libc's "-0" would read back as [Int 0]; both emitters write "-0.0",
   which reads back as the float -0., sign bit and all. *)
let test_negative_zero () =
  let doc = Obs.Json.List [ Obs.Json.Float (-0.); Obs.Json.Float 0. ] in
  Alcotest.(check string) "compact" "[-0.0,0]" (Obs.Json.to_compact doc);
  Alcotest.(check string) "pretty" "[\n  -0.0,\n  0\n]\n" (Obs.Json.to_string doc);
  List.iter
    (fun text ->
      match Obs.Json.of_string text with
      | Ok (Obs.Json.List [ Obs.Json.Float z; Obs.Json.Int 0 ]) ->
          Alcotest.(check bool) "sign bit survives" true (Float.sign_bit z && Float.equal z 0.)
      | _ -> Alcotest.fail ("does not read back: " ^ text))
    [ Obs.Json.to_compact doc; Obs.Json.to_string doc ];
  Alcotest.(check string) "float_compact stays libc's" "-0" (Obs.Json.float_compact (-0.))

let suites =
  [
    ( "json escape",
      [
        Alcotest.test_case "escapes in keys and values" `Quick test_escapes;
        Alcotest.test_case "negative zero round-trips" `Quick test_negative_zero;
      ] );
    ( "float compact",
      [
        QCheck_alcotest.to_alcotest qcheck_random_bits;
        QCheck_alcotest.to_alcotest qcheck_subnormal_bits;
        Alcotest.test_case "fixed table" `Quick test_fixed_table;
        Alcotest.test_case "ties round to even" `Quick test_ties;
        Alcotest.test_case "traffic-shaped sweep" `Quick test_traffic_sweep;
      ] );
  ]
