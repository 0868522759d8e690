(* The wire codec against its frozen predecessor (Json_oracle): the
   parser gives the same tree (floats compared bit for bit) or the same
   error text, the compact emitter the same bytes, the request decoder
   the same request or the same error, and the raw-bit cache key the
   same equivalence classes as the decimal one.  Then the committed
   wire golden, which pins the format every surface shares. *)

module J = Obs.Json

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let rec same_tree a b =
  match (a, b) with
  | J.Float x, J.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | J.List xs, J.List ys -> List.length xs = List.length ys && List.for_all2 same_tree xs ys
  | J.Obj xs, J.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (k, x) (l, y) -> String.equal k l && same_tree x y) xs ys
  | J.Float _, _ | _, J.Float _ | J.List _, _ | _, J.List _ | J.Obj _, _ | _, J.Obj _ -> false
  | _ -> a = b

let same_parse text =
  match (J.of_string text, Json_oracle.of_string text) with
  | Ok a, Ok b -> same_tree a b
  | Error x, Error y -> String.equal x y
  | _ -> false

(* Requests compare by their lossless canonical text, so -0 and 0 differ. *)
let request_text r = Json_oracle.to_compact (Api.Request.to_json r)

let same_request_result a b =
  match (a, b) with
  | Ok a, Ok b -> String.equal (request_text a) (request_text b)
  | Error x, Error y -> String.equal x y
  | _ -> false

let oracle_of_line line =
  match Json_oracle.of_string line with
  | Error e -> Error ("malformed JSON: " ^ e)
  | Ok json -> Json_oracle.request_of_json json

let same_of_line line = same_request_result (Api.Request.of_line line) (oracle_of_line line)

(* --- generators ---------------------------------------------------------- *)

let bits_float =
  QCheck.Gen.(
    map2
      (fun hi lo ->
        Int64.float_of_bits (Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)))
      (int_range 0 0xFFFF_FFFF) (int_range 0 0xFFFF_FFFF))

let float_gen =
  QCheck.Gen.(
    frequency
      [
        (4, bits_float);
        (2, map (fun x -> Float.round (x *. 1000.) /. 1000.) (float_range 0. 10_000.));
        ( 2,
          oneofl
            [
              0.; -0.; 1.; -1.; 2.; 1e5; 5e-324; -5e-324; Float.pred 0x1p-1022; 0x1p-1022;
              Float.max_float; Float.nan; Float.infinity; Float.neg_infinity; 0.1 +. 0.2;
              1e22; 1e23; 1e-22; 1e-23;
            ] );
      ])

let string_gen =
  QCheck.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'z'; ' '; '"'; '\\'; '/'; '\n'; '\t'; '\r'; '\001'; '\x1f'; '\xc3'; '\xa9' ])
      (int_bound 8))

let tree_gen =
  QCheck.Gen.(
    sized_size (int_bound 4)
    @@ fix (fun self n ->
           let leaf =
             frequency
               [
                 (1, return J.Null);
                 (1, map (fun b -> J.Bool b) bool);
                 (2, map (fun i -> J.Int i) (oneof [ int; small_signed_int ]));
                 (4, map (fun f -> J.Float f) float_gen);
                 (2, map (fun s -> J.String s) string_gen);
               ]
           in
           if n = 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun l -> J.List l) (list_size (int_bound 4) (self (n - 1))));
                 ( 1,
                   map (fun l -> J.Obj l) (list_size (int_bound 4) (pair string_gen (self (n - 1)))) );
               ]))

let digits k = QCheck.Gen.(string_size ~gen:(char_range '0' '9') (return k))

(* Numbers in and around strtod's decimal grammar: 1-20 digit
   mantissas (15, 16 and 17 often), a point anywhere, exponents near
   the fast path's edge (22/23), near overflow and underflow (308, 324)
   or anywhere, in either case with or without a sign. *)
let number_text =
  QCheck.Gen.(
    let* sign = oneofl [ ""; ""; "-"; "+" ] in
    let* len = frequency [ (3, int_range 1 20); (3, oneofl [ 15; 16; 17 ]) ] in
    let* mantissa = digits len in
    let* point = frequency [ (1, return None); (3, map Option.some (int_bound len)) ] in
    let mantissa =
      match point with
      | None -> mantissa
      | Some p -> String.sub mantissa 0 p ^ "." ^ String.sub mantissa p (len - p)
    in
    let* exp =
      frequency
        [
          (2, return "");
          ( 3,
            let* e = oneofl [ "e"; "E" ] and* s = oneofl [ ""; "-"; "+" ] in
            let* v =
              frequency
                [
                  (3, int_bound 25);
                  (2, oneofl [ 21; 22; 23; 24 ]);
                  (1, int_range 290 330);
                  (1, int_bound 400);
                ]
            in
            return (e ^ s ^ string_of_int v) );
        ]
    in
    return (sign ^ mantissa ^ exp))

let fixed_numbers =
  [
    "0"; "-0"; "+0"; "-0.0"; "0.0"; "1e5"; "+5"; "01"; "00.5"; "1."; ".5"; "-.5"; "."; "-"; "+";
    "e5"; "1e"; "1e+"; "1e-"; "1.5.2"; "1e5e5"; "1-2"; "--1"; "+-1"; "4611686018427387903";
    "4611686018427387904"; "-4611686018427387904"; "-4611686018427387905";
    "1000000000000000000"; "99999999999999999999"; "123456789012345"; "1234567890123456";
    "12345678901234567"; "9007199254740993.0"; "900719925474099.3"; "1e22"; "1e23"; "1e-22";
    "1e-23"; "123456789012345e22"; "123456789012345e23"; "1.5e-22"; "1.5e-23"; "1e308";
    "1.7976931348623157e308"; "1.8e308"; "1e309"; "-1e400"; "1e-308"; "2.2250738585072014e-308";
    "2.2250738585072011e-308"; "4.9e-324"; "5e-324"; "2e-324"; "1e-400"; "0e999999"; "1e0000000000022";
    "1e100000000"; "0.000000000000000000000000000001e30"; "1.000000000000000000000";
  ]

let arb_text gen = QCheck.make ~print:(Printf.sprintf "%S") gen

(* --- requests -------------------------------------------------------------- *)

let profiles = [ "uniform"; "lognormal" ]

let request_gen =
  QCheck.Gen.(
    let pool = [ 0.5; 1.; Float.succ 1.; 2.; 3.456; 0.1 +. 0.2; 0.3 ] in
    let* platform =
      frequency
        [
          ( 3,
            map
              (fun l -> Api.Request.Speeds (Array.of_list l))
              (list_size (int_range 1 4) (oneofl pool)) );
          ( 1,
            let* name = oneofl profiles and* p = int_range 1 3 and* seed = int_range 1 2 in
            return (Api.Request.Profile { name; p; seed }) );
        ]
    in
    let* kind =
      frequency
        [
          (1, return Api.Request.Schedule);
          (1, return Api.Request.Ratio);
          (1, return Api.Request.Plan);
          ( 1,
            map
              (fun l -> Api.Request.Multi_load (Array.of_list l))
              (list_size (int_range 1 2) (oneofl [ 0.5; 1.; Float.succ 1. ])) );
        ]
    in
    let* workload =
      oneofl
        Dlt.Cost_model.[ Linear; N_log_n; Power 1.5; Power (Float.succ 1.5); Power 2. ]
    and* comm_model = oneofl Dlt.Schedule.[ Parallel; One_port ]
    and* bandwidth = oneofl [ 1.; Float.succ 1. ]
    and* latency = oneofl [ 0.; -0.; 0.25; Float.succ 0.25 ]
    and* total = oneofl [ 1.; 2.; Float.succ 1. ] in
    return
      { Api.Request.platform; bandwidth; latency; workload; comm_model; total; kind })

let shuffled rng a =
  let a = Array.copy a in
  QCheck.Gen.shuffle_a a rng;
  a

(* A request the key must not tell apart from [r]: permuted speeds, or
   a profile replaced by the speeds it draws. *)
let equivalent rng (r : Api.Request.t) =
  match r.platform with
  | Api.Request.Speeds s -> { r with platform = Api.Request.Speeds (shuffled rng s) }
  | Api.Request.Profile _ ->
      {
        r with
        platform = Api.Request.Speeds (shuffled rng (Platform.Star.speeds (Api.Request.star r)));
      }

(* Either an equivalent spelling, a fresh request, or one field moved
   to a neighbouring double or a sign-flipped zero. *)
let pair_gen =
  QCheck.Gen.(
    let* r = request_gen and* other = request_gen and* which = int_bound 5 in
    fun rng ->
      let nudge (r : Api.Request.t) =
        match QCheck.Gen.int_bound 3 rng with
        | 0 -> { r with latency = (if r.latency = 0. then -.r.latency else Float.succ r.latency) }
        | 1 -> { r with bandwidth = Float.succ r.bandwidth }
        | 2 -> { r with total = Float.pred r.total }
        | _ -> (
            match r.platform with
            | Api.Request.Speeds s ->
                let s = Array.copy s in
                s.(0) <- Float.succ s.(0);
                { r with platform = Api.Request.Speeds s }
            | Api.Request.Profile p ->
                { r with platform = Api.Request.Profile { p with seed = p.seed + 1 } })
      in
      match which with
      | 0 | 1 -> (r, equivalent rng r)
      | 2 -> (r, other)
      | 3 -> (r, nudge (equivalent rng r))
      | _ -> (r, r))

(* [line] with every integer-valued number after a ':', '[' or ','
   respelled "N.0", except the integer fields. *)
let with_points line =
  let n = String.length line in
  let b = Buffer.create (n + 64) in
  let after i key =
    let k = String.length key in
    i >= k && String.sub line (i - k) k = key
  in
  let i = ref 0 in
  while !i < n do
    let c = line.[!i] in
    Buffer.add_char b c;
    incr i;
    if
      (c = ':' || c = '[' || c = ',')
      && not (List.exists (after !i) [ {|"schema_version":|}; {|"p":|}; {|"seed":|} ])
    then begin
      let j = ref !i in
      if !j < n && line.[!j] = '-' then incr j;
      while !j < n && line.[!j] >= '0' && line.[!j] <= '9' do
        incr j
      done;
      let token = String.sub line !i (!j - !i) in
      if !j > !i && !j < n && String.contains ",]}" line.[!j] then begin
        Buffer.add_string b (token ^ ".0");
        i := !j
      end
    end
  done;
  Buffer.contents b

(* The lossless spellings of [r]: the ones perfbench sends (canonical,
   fields reversed, speeds permuted), whitespace-padded, and "N.0". *)
let spellings rng r =
  let fields = match Api.Request.to_json r with J.Obj f -> f | _ -> assert false in
  let line = Json_oracle.to_compact (Api.Request.to_json r) in
  [
    line;
    Json_oracle.to_compact (J.Obj (List.rev fields));
    Json_oracle.to_compact (Api.Request.to_json (equivalent rng r));
    " \t" ^ String.concat " , " (String.split_on_char ',' line) ^ " \r\n";
    with_points line;
  ]

(* Field-level damage to a valid request: a duplicate key, an unknown
   key, a value of the wrong type, a missing field, the same inside the
   platform object. *)
let damaged_gen =
  QCheck.Gen.(
    let* r = request_gen and* op = int_bound 6 and* at = int_bound 8 and* v = tree_gen in
    let fields = match Api.Request.to_json r with J.Obj f -> f | _ -> assert false in
    let at = at mod List.length fields in
    let key = fst (List.nth fields at) in
    let fields =
      match op with
      | 0 -> fields @ [ (key, v) ]
      | 1 -> (key, v) :: fields
      | 2 -> List.mapi (fun i (k, x) -> if i = at then (k, v) else (k, x)) fields
      | 3 -> List.filteri (fun i _ -> i <> at) fields
      | 4 -> fields @ [ ("frobnicate", v) ]
      | 5 ->
          List.map
            (fun (k, x) ->
              match (k, x) with
              | "platform", J.Obj pf -> (k, J.Obj (pf @ [ ((if at land 1 = 0 then "p" else "gpus"), v) ]))
              | _ -> (k, x))
            fields
      | _ ->
          List.map
            (fun (k, x) ->
              match (k, x) with
              | "platform", J.Obj pf -> (k, J.Obj (("profile", v) :: pf))
              | _ -> (k, x))
            fields
    in
    return (J.Obj fields))

(* --- laws -------------------------------------------------------------------- *)

let law_documents =
  QCheck.Test.make ~count:2_000 ~name:"(a) of_string = oracle on random documents"
    (QCheck.make ~print:Json_oracle.to_compact tree_gen) (fun t ->
      same_parse (Json_oracle.to_compact t) && same_parse (J.to_string t))

let law_numbers =
  QCheck.Test.make ~count:20_000 ~name:"(a) of_string = oracle on number spellings"
    (arb_text number_text) (fun text ->
      same_parse text && same_parse ("[" ^ text ^ "]") && same_parse ("{\"k\":" ^ text ^ " }"))

let law_number_chars =
  QCheck.Test.make ~count:5_000 ~name:"(a) of_string = oracle on number-character runs"
    (arb_text QCheck.Gen.(string_size ~gen:(oneofl (List.init 15 (String.get "0123456789+-.eE"))) (int_bound 10)))
    (fun text -> same_parse text && same_parse ("[" ^ text ^ ",1]"))

(* Every lossless spelling also decodes to [r]'s own key (a -0 field
   is written "-0.0", so it reads back as the float -0); the pretty
   form rounds floats to 6 digits, so it only has to match the
   oracle. *)
let law_spellings =
  QCheck.Test.make ~count:1_000 ~name:"(a) of_line = oracle on every request spelling"
    (QCheck.make
       ~print:(fun (_, lines) -> String.concat "\n" lines)
       QCheck.Gen.(request_gen >>= fun r rng -> (r, spellings rng r)))
    (fun (r, lines) ->
      let key = Api.Fingerprint.of_request r in
      same_parse (J.to_string (Api.Request.to_json r))
      && List.for_all
           (fun line ->
             same_parse line && same_of_line line
             &&
             match Api.Request.of_line line with
             | Ok r' -> String.equal key (Api.Fingerprint.of_request r')
             | Error _ -> false)
           lines)

let law_damaged =
  QCheck.Test.make ~count:2_000 ~name:"(a) of_json = oracle on damaged requests"
    (QCheck.make ~print:Json_oracle.to_compact damaged_gen) (fun j ->
      same_request_result (Api.Request.of_json j) (Json_oracle.request_of_json j)
      && same_of_line (Json_oracle.to_compact j))

let line_and_cut =
  QCheck.Gen.(
    let* r = request_gen and* cut = int_bound 1_000 and* flip = char and* mode = int_bound 2 in
    let line = Json_oracle.to_compact (Api.Request.to_json r) in
    let at = cut mod (String.length line + 1) in
    return
      (match mode with
      | 0 -> String.sub line 0 at
      | _ when at = String.length line -> line ^ String.make 1 flip
      | _ -> String.mapi (fun i c -> if i = at then flip else c) line))

let law_broken_lines =
  QCheck.Test.make ~count:5_000 ~name:"(a) of_line = oracle on truncated and flipped lines"
    (arb_text line_and_cut) (fun line -> same_parse line && same_of_line line)

(* An exception fails a property, so this is also law (d): [of_line]
   never raises on arbitrary bytes. *)
let law_bytes =
  QCheck.Test.make ~count:5_000 ~name:"(a, d) of_line = oracle, never raising, on arbitrary bytes"
    (arb_text QCheck.Gen.(string_size ~gen:char (int_bound 64)))
    (fun line -> same_parse line && same_of_line line)

let law_emitter =
  QCheck.Test.make ~count:5_000 ~name:"(b) to_compact = oracle on random trees"
    (QCheck.make ~print:Json_oracle.to_compact tree_gen) (fun t ->
      String.equal (J.to_compact t) (Json_oracle.to_compact t))

(* Both emitters write an [Int] from the digit-pair table, as
   [string_of_int] spells it. *)
let law_ints =
  QCheck.Test.make ~count:5_000 ~name:"(b) emitted ints = string_of_int"
    QCheck.(
      make ~print:string_of_int
        Gen.(
          oneof
            [
              int;
              small_signed_int;
              map (fun k -> 1 lsl k) (int_bound 61);
              oneofl [ 0; 1; -1; min_int; max_int ];
            ]))
    (fun i ->
      let text = string_of_int i in
      String.equal (J.to_compact (J.Int i)) text
      && String.equal (J.to_string (J.Int i)) (text ^ "\n"))

let law_keys =
  QCheck.Test.make ~count:5_000 ~name:"(c) raw-bit keys collide exactly when decimal keys do"
    (QCheck.make
       ~print:(fun (a, b) -> request_text a ^ "\n" ^ request_text b)
       pair_gen)
    (fun (a, b) ->
      Bool.equal
        (String.equal (Api.Fingerprint.of_request a) (Api.Fingerprint.of_request b))
        (String.equal (Json_oracle.fingerprint a) (Json_oracle.fingerprint b)))

(* --- fixed cases ------------------------------------------------------------------ *)

let test_fixed_numbers () =
  List.iter
    (fun text ->
      List.iter
        (fun doc -> checkb doc true (same_parse doc && same_of_line doc))
        [ text; "[" ^ text ^ "]"; "{\"kind\":\"plan\",\"platform\":{\"speeds\":[" ^ text ^ "]}}" ])
    fixed_numbers

let test_fixed_strings () =
  List.iter
    (fun doc -> checkb doc true (same_parse doc && same_of_line doc))
    [
      {|"Aé\u12_4\u_123\u12"|}; {|"\u004|}; {|"A1"|}; {|"a\qb"|}; {|"a\|}; {|"abc|};
      {|"\"\\\/\b\f\n\r\t"|}; {|{"a" 1}|}; {|{"a":1,}|}; {|{,}|}; {|[1,]|}; {|[1 2]|}; "[";
      "{"; ""; "   "; "tru"; "nul"; "falsey"; "true false"; {|{"kind":"plan"} x|};
      {|{"k"ey":1}|};
    ]

let test_deep_nesting () =
  let deep = 10_000 in
  List.iter
    (fun line ->
      match Api.Request.of_line line with
      | Ok _ -> Alcotest.fail "deep nesting decoded as a request"
      | Error e -> checkb "same error as the oracle" true (same_of_line line && e <> ""))
    [
      String.make deep '[';
      String.make deep '{';
      String.concat "" (List.init deep (fun _ -> "{\"a\":"));
      String.make deep '[' ^ String.make deep ']';
      String.concat "" (List.init deep (fun _ -> "[1,")) ^ "1" ^ String.make deep ']';
    ]

let key_of ?(latency = 0.) ?(total = 1.) platform =
  match Api.Request.make ~latency ~total ~platform ~kind:Api.Request.Plan () with
  | Ok r -> Api.Fingerprint.of_request r
  | Error e -> Alcotest.fail e

let test_key_cases () =
  let s a = Api.Request.Speeds a in
  checks "permuted speeds" (key_of (s [| 1.; 2.; 3. |])) (key_of (s [| 3.; 1.; 2. |]));
  let profile = Api.Request.Profile { name = "lognormal"; p = 5; seed = 3 } in
  let drawn =
    match Api.Request.make ~platform:profile ~kind:Api.Request.Plan () with
    | Ok r -> Platform.Star.speeds (Api.Request.star r)
    | Error e -> Alcotest.fail e
  in
  checks "profile = its drawn speeds" (key_of profile) (key_of (s (Array.of_list (List.rev (Array.to_list drawn)))));
  checkb "-0 and +0 latency differ" false (key_of ~latency:0. (s [| 1. |]) = key_of ~latency:(-0.) (s [| 1. |]));
  checkb "neighbouring totals differ" false (key_of ~total:1. (s [| 1. |]) = key_of ~total:(Float.succ 1.) (s [| 1. |]));
  checkb "neighbouring speeds differ" false (key_of (s [| 1.; 2. |]) = key_of (s [| 1.; Float.pred 2. |]));
  (* Past the insertion sort's 64 keys the radix kernel orders them. *)
  let many = Array.init 200 (fun i -> float_of_int ((i * 7919 mod 200) + 1)) in
  checks "200 permuted speeds" (key_of (s many)) (key_of (s (Array.init 200 (fun i -> float_of_int (i + 1)))))

(* --- wire golden ---------------------------------------------------------------- *)

(* Next to the test binary, where [(deps wire_golden.txt)] puts it, so
   the suite passes from any working directory. *)
let golden_pairs () =
  let path = Filename.concat (Filename.dirname Sys.executable_name) "wire_golden.txt" in
  let lines =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  let rec pairs = function
    | q :: a :: rest -> (q, a) :: pairs rest
    | [] -> []
    | [ _ ] -> Alcotest.fail "wire_golden.txt: a query without its answer"
  in
  pairs lines

let test_wire_golden () =
  let pairs = golden_pairs () in
  Alcotest.(check int) "golden entries" 8 (List.length pairs);
  let socket_path, daemon = Test_serve.start_daemon () in
  let client = Serve.Client.connect_unix socket_path in
  List.iter
    (fun (query, answer) ->
      checks ("daemon: " ^ query) answer (Serve.Client.request client query);
      if not (String.starts_with ~prefix:{|{"control"|} query) then
        checks ("in-process: " ^ query) answer (Api.Response.to_line (Api.Eval.eval_line query)))
    pairs;
  ignore (Test_serve.stop_daemon client daemon : Serve.Batch.t)

let suites =
  [
    ( "wire codec",
      List.map QCheck_alcotest.to_alcotest
        [
          law_documents; law_numbers; law_number_chars; law_spellings; law_damaged;
          law_broken_lines; law_bytes; law_emitter; law_ints; law_keys;
        ]
      @ [
          Alcotest.test_case "fixed number spellings" `Quick test_fixed_numbers;
          Alcotest.test_case "fixed string and syntax errors" `Quick test_fixed_strings;
          Alcotest.test_case "10^4-deep nesting" `Quick test_deep_nesting;
          Alcotest.test_case "key equivalence cases" `Quick test_key_cases;
          Alcotest.test_case "wire golden" `Quick test_wire_golden;
        ] );
  ]
