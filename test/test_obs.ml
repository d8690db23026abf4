(** Tests for the observability layer (Emc_obs): JSON round-trips, the
    metrics registry, log level plumbing, Chrome-trace well-formedness and
    span nesting, and the SMARTS telemetry contract. *)

module Json = Emc_obs.Json
module Metrics = Emc_obs.Metrics
module Log = Emc_obs.Log
module Trace = Emc_obs.Trace

let cb = Alcotest.(check bool)
let ci = Alcotest.(check int)
let cs = Alcotest.(check string)

(* ---------------- Json ---------------- *)

let test_json_print () =
  cs "null" "null" (Json.to_string Json.Null);
  cs "bool" "true" (Json.to_string (Json.Bool true));
  cs "int" "42" (Json.to_string (Json.Int 42));
  cs "negative int" "-7" (Json.to_string (Json.Int (-7)));
  cs "integral float" "3" (Json.to_string (Json.Float 3.0));
  cs "nan is null" "null" (Json.to_string (Json.Float Float.nan));
  cs "inf is null" "null" (Json.to_string (Json.Float Float.infinity));
  cs "escaping" {|"a\"b\\c\n\td"|} (Json.to_string (Json.Str "a\"b\\c\n\td"));
  cs "control chars" {|"\u0001"|} (Json.to_string (Json.Str "\001"));
  cs "nested" {|{"k":[1,2.5,"x"],"e":{}}|}
    (Json.to_string
       (Json.Obj
          [ ("k", Json.List [ Json.Int 1; Json.Float 2.5; Json.Str "x" ]); ("e", Json.Obj []) ]))

let test_json_parse_roundtrip () =
  let roundtrip j =
    let s = Json.to_string j in
    cs ("roundtrip " ^ s) s (Json.to_string (Json.parse_exn s))
  in
  List.iter roundtrip
    [
      Json.Null;
      Json.Bool false;
      Json.Int 123;
      Json.Int (-456);
      Json.Float 1.25;
      Json.Float (-0.0625);
      Json.Str "hello \"world\"\n";
      Json.List [ Json.Int 1; Json.Null; Json.Str "x" ];
      Json.Obj [ ("a", Json.Int 1); ("b", Json.List []); ("c", Json.Obj [ ("d", Json.Bool true) ]) ];
    ];
  (match Json.parse_exn {| { "a" : [ 1 , 2 ] } |} with
  | Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Int 2 ]) ] -> ()
  | _ -> Alcotest.fail "whitespace-tolerant parse");
  cb "trailing garbage rejected" true (Result.is_error (Json.parse "1 2"));
  cb "bad literal rejected" true (Result.is_error (Json.parse "troo"));
  cb "unterminated string rejected" true (Result.is_error (Json.parse "\"abc"));
  (* total: numbers OCaml cannot read and escapes without four hex digits
     are Errors, never a leaked Failure *)
  List.iter
    (fun s -> cb (Printf.sprintf "%s rejected" s) true (Result.is_error (Json.parse s)))
    [ "."; "1e"; "-."; "[1e]"; {|{"v":1e+}|}; {|"\uZZZZ"|}; {|"\u12G4"|}; {|"\u1_23"|} ];
  match Json.parse_exn {|"éA"|} with
  | Json.Str s -> cs "unicode escapes decode to UTF-8" "\xc3\xa9A" s
  | _ -> Alcotest.fail "expected string"

(* ---------------- Json numbers ---------------- *)

(* What Json.parse read from a number text before it converted floats
   itself: int_of_string_opt, then float_of_string. *)
let number_reference text =
  match int_of_string_opt text with
  | Some i -> Ok (Json.Int i)
  | None -> (
      match float_of_string_opt text with Some f -> Ok (Json.Float f) | None -> Error "")

let same_number a b =
  match (a, b) with
  | Ok (Json.Int i), Ok (Json.Int j) -> i = j
  | Ok (Json.Float f), Ok (Json.Float g) ->
      Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g)
  | Error _, Error _ -> true
  | _ -> false

(* The exact decimal digits of o·2^e (o > 0), most significant first, and
   the power of ten of the last one. *)
let dyadic_digits o e =
  let rec digits n acc = if n = 0 then acc else digits (n / 10) ((n mod 10) :: acc) in
  let mul k d =
    (* [d] least significant digit first *)
    let rec go carry = function
      | [] -> if carry = 0 then [] else (carry mod 10) :: go (carry / 10) []
      | x :: rest ->
          let v = (x * k) + carry in
          (v mod 10) :: go (v / 10) rest
    in
    go 0 d
  in
  let d = ref (List.rev (digits o [])) in
  for _ = 1 to abs e do
    d := mul (if e >= 0 then 2 else 5) !d
  done;
  (List.rev !d, Int.min e 0)

(* The midpoint of a positive double x and its successor cut to [n]
   significant digits, then that text one unit below, itself and one unit
   above: an exact midpoint where it has at most [n] digits. *)
let midpoint_texts x n =
  let f, k = Float.frexp x in
  let digits, p = dyadic_digits ((2 * Float.to_int (Float.ldexp f 53)) + 1) (k - 54) in
  let keep = Int.min n (List.length digits) in
  let d =
    List.fold_left (fun acc x -> (acc * 10) + x) 0 (List.filteri (fun i _ -> i < keep) digits)
  in
  List.map (fun d -> Printf.sprintf "%de%d" d (p + List.length digits - keep)) [ d - 1; d; d + 1 ]

(* Texts m·10^q, 2^53 < m < 10^18, a hair off the midpoint o·2^s of two
   adjacent doubles (o odd, 2^53 < o < 2^54): m·5^q - o·2^(s-q) is an odd
   r with |r| <= 5 and s >= q + 52, so m·10^q - o·2^s = r·2^q is never
   zero and within 5·2^-53 of the gap 2^(s+1). Found offline with exact
   integers. The direct conversion's correction term can round across
   that midpoint, so each reads the wrong neighbour when the rounding
   guard accepts every t, or accepts |e| up to a whole gap. *)
let near_midpoints =
  [ "103153703182094201e22"; "290588534541946205e21"; "321901014780441251e21";
    "373369680824323961e22"; "49968684148502663e22"; "58117706908389241e22";
    "587826109948398941e21"; "733657651013963641e22"; "763253778262749859e21";
    "907368966338605731e21"; "969561184626938261e22"; "995724605896306823e22" ]

(* Every number text Json.parse reads gets the constructor and bits the
   reference gives it, and is an error exactly where the reference fails:
   doubles printed at 15-18 digits (any bit pattern, so subnormals, and
   [-1, 1], +-0, max_float, integers near 1e15), 1-25 digit significands
   with leading zeros, signs, a '.' anywhere and exponents in +-400,
   texts around the midpoint of two adjacent doubles at 17 and 18 digits,
   and texts within a hair of one. *)
let prop_json_numbers =
  let open QCheck2.Gen in
  let finite f = if Float.is_finite f then f else 0.5 in
  let printed =
    let+ prec = int_range 15 18
    and+ f =
      frequency
        [ (3, map (fun b -> finite (Int64.float_of_bits b)) int64);
          (3, float_range (-1.0) 1.0);
          (1, map (fun k -> 1e15 +. float_of_int k) (int_range (-1000) 1000));
          (1, oneofl [ 0.0; -0.0; Float.max_float; -.Float.max_float; Float.min_float; 4.9e-324 ]) ]
    in
    Printf.sprintf "%.*g" prec f
  in
  let decimal =
    let+ sign = oneofl [ ""; "-" ]
    and+ zeros = int_range 0 3
    and+ digits =
      string_size ~gen:(map (fun d -> Char.chr (48 + d)) (int_range 0 9)) (int_range 1 25)
    and+ dot = int_range (-1) 28
    and+ exp =
      frequency
        [ (2, pure "");
          (2, map (Printf.sprintf "e%d") (int_range (-25) 25));
          (1, map (Printf.sprintf "e%d") (int_range (-400) 400));
          (1, map (Printf.sprintf "E+%d") (int_range 0 400)) ]
    in
    let body = String.make zeros '0' ^ digits in
    let n = String.length body in
    let body =
      if dot < 0 || dot > n then body
      else String.sub body 0 dot ^ "." ^ String.sub body dot (n - dot)
    in
    sign ^ body ^ exp
  in
  let midpoint =
    let+ x =
      map2 (fun u e -> Float.ldexp (1.0 +. u) e) (float_bound_exclusive 1.0) (int_range (-80) 80)
    and+ n = oneofl [ 17; 18 ]
    and+ which = int_range 0 2 in
    List.nth (midpoint_texts x n) which
  in
  let edges =
    oneofl
      [ "-.5"; ".5"; "5."; "1.e5"; "-0"; "-0.0"; "0e0"; "-0e-999"; "1e400"; "-1e-400"; "00.5";
        "9007199254740993.0"; "4611686018427387903"; "4611686018427387904"; "-4611686018427387905";
        "."; "-."; "-"; "1e"; "1e+"; "e5"; "-e" ]
  in
  QCheck2.Test.make ~name:"json: numbers read as int_of_string_opt/float_of_string" ~count:3000
    ~print:Fun.id
    (frequency
       [ (3, printed); (3, decimal); (2, midpoint); (1, edges); (2, oneofl near_midpoints) ])
    (fun text -> same_number (Json.parse text) (number_reference text))

(* The coordinates serve-predict and emc loadgen send, doubles in [-1, 1]
   drawn by Emc_util.Rng and rendered by Json.to_string, take the direct
   conversion: every one of 64 batches of 16 points per seed, and a whole
   batch body parses back to the same bits. (One coordinate in about a
   million is below 1e-6 in magnitude; its decimal exponent is then below
   -22, and it falls back.) *)
let test_json_coordinates_direct () =
  List.iter
    (fun seed ->
      let rng = Emc_util.Rng.create seed in
      let batch () =
        List.init 16 (fun _ -> List.init 25 (fun _ -> Emc_util.Rng.float rng 2.0 -. 1.0))
      in
      for _ = 1 to 64 do
        let points = batch () in
        List.iter
          (List.iter (fun v ->
               let text = Json.to_string (Json.Float v) in
               match Json.direct_float text with
               | Some f when Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float v) -> ()
               | _ -> Alcotest.failf "%s (seed %d) misses the direct conversion" text seed))
          points;
        let json xs = Json.List (List.map (fun v -> Json.Float v) xs) in
        let body = Json.Obj [ ("points", Json.List (List.map json points)) ] in
        cb "a batch body parses back to its bits" true
          (Json.parse (Json.to_string body) = Ok body)
      done)
    [ 7; 29 ]

(* ---------------- Json strings ---------------- *)

(* Json.parse as it was before a string without escapes became one
   slice: every string copied through a buffer a character at a time.
   A number text has the extent of Json's scan and is read by
   int_of_string_opt, then float_of_string, which gives the bits of
   Json's own conversion ("numbers read as int_of_string_opt/float_of_string"). *)
let parse_reference s =
  let exception Parse_error of string in
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let at c = !pos < n && String.unsafe_get s !pos = c in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c = if at c then advance () else fail (Printf.sprintf "expected '%c'" c) in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("invalid literal, expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          if !pos >= n then fail "unterminated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char buf '"'; advance ()
          | '\\' -> Buffer.add_char buf '\\'; advance ()
          | '/' -> Buffer.add_char buf '/'; advance ()
          | 'b' -> Buffer.add_char buf '\b'; advance ()
          | 'f' -> Buffer.add_char buf '\012'; advance ()
          | 'n' -> Buffer.add_char buf '\n'; advance ()
          | 'r' -> Buffer.add_char buf '\r'; advance ()
          | 't' -> Buffer.add_char buf '\t'; advance ()
          | 'u' ->
              advance ();
              if !pos + 4 > n then fail "truncated \\u escape";
              let hex = String.sub s !pos 4 in
              let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
              if not (String.for_all is_hex hex) then fail "invalid \\u escape";
              let code = int_of_string ("0x" ^ hex) in
              pos := !pos + 4;
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end
          | c -> fail (Printf.sprintf "invalid escape '\\%c'" c));
          go ()
      | c -> Buffer.add_char buf c; advance (); go ()
    in
    go ();
    Buffer.contents buf
  in
  let digit i = i < n && s.[i] >= '0' && s.[i] <= '9' in
  let rec exponent i = if digit i then exponent (i + 1) else i in
  let rec significand i dot =
    if digit i then significand (i + 1) dot
    else if i < n && s.[i] = '.' && not dot then significand (i + 1) true
    else if i < n && (s.[i] = 'e' || s.[i] = 'E') then
      exponent (if i + 1 < n && (s.[i + 1] = '-' || s.[i + 1] = '+') then i + 2 else i + 1)
    else i
  in
  let parse_number () =
    let start = !pos in
    pos := significand (if at '-' then start + 1 else start) false;
    let text = String.sub s start (!pos - start) in
    match int_of_string_opt text with
    | Some i -> Json.Int i
    | None -> (
        match float_of_string text with
        | f -> Json.Float f
        | exception Failure _ -> fail "invalid number")
  in
  let rec parse_value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match s.[!pos] with
    | '"' -> Json.Str (parse_string ())
    | 't' -> literal "true" (Json.Bool true)
    | 'f' -> literal "false" (Json.Bool false)
    | 'n' -> literal "null" Json.Null
    | '[' ->
        advance ();
        skip_ws ();
        if at ']' then begin advance (); Json.List [] end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while at ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          Json.List (List.rev !items)
        end
    | '{' ->
        advance ();
        skip_ws ();
        if at '}' then begin advance (); Json.Obj [] end
        else begin
          let pair () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let items = ref [ pair () ] in
          skip_ws ();
          while at ',' do
            advance ();
            items := pair () :: !items;
            skip_ws ()
          done;
          expect '}';
          Json.Obj (List.rev !items)
        end
    | _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* Equal values, floats compared by their bits *)
let rec same_json a b =
  match (a, b) with
  | Json.Float f, Json.Float g -> Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g)
  | Json.List xs, Json.List ys ->
      List.compare_lengths xs ys = 0 && List.for_all2 same_json xs ys
  | Json.Obj xs, Json.Obj ys ->
      List.compare_lengths xs ys = 0
      && List.for_all2 (fun (k, x) (l, y) -> String.equal k l && same_json x y) xs ys
  | _ -> a = b

(* Documents dense in strings: every escape, \u escapes valid, invalid
   and cut short, raw control bytes, UTF-8 and stray high bytes, escapes
   at any place in a string, strings left open; with every prefix of
   each, a string is cut off at every offset. Keys, values and list
   items are strings, with a few numbers and literals between them. *)
let prop_json_strings =
  let open QCheck2.Gen in
  let plain = oneofl (List.of_seq (String.to_seq "abcXYZ 019:,{}[]/'")) in
  let fragment =
    frequency
      [ (6, string_size ~gen:plain (int_range 1 6));
        (3, oneofl [ {|\"|}; {|\\|}; {|\/|}; {|\b|}; {|\f|}; {|\n|}; {|\r|}; {|\t|} ]);
        (2,
         oneofl
           [ {|\u00e9|}; {|\u0041|}; {|\u4E2d|}; {|\uFFFF|}; {|\u0000|}; {|\u07ff|}; {|\u0800|};
             {|\u007F|} ]);
        (1, map (Printf.sprintf "\\u%04x") (int_range 0 0xFFFF));
        (1, oneofl [ {|\u12G4|}; {|\u1_23|}; {|\uZZZZ|}; {|\u 123|}; {|\u12|}; {|\u|} ]);
        (1, oneofl [ {|\x|}; {|\a|}; {|\'|}; {|\0|}; {|\U0041|}; "\\" ]);
        (1, map (String.make 1) (map Char.chr (oneof [ int_range 0 31; return 127 ])));
        (1, oneofl [ "\xc3\xa9"; "\xe4\xb8\xad"; "\xf0\x9f\x98\x80"; "\x80"; "\xff" ]) ]
  in
  let str =
    let+ parts = list_size (int_range 0 5) fragment
    and+ closed = frequency [ (12, return true); (1, return false) ] in
    "\"" ^ String.concat "" parts ^ if closed then "\"" else ""
  in
  let ws = oneofl [ ""; ""; " "; "\n\t" ] in
  let scalar =
    frequency
      [ (6, str); (1, oneofl [ "0"; "-12"; "3.25"; "1e5"; "-"; "1e"; "true"; "null"; "nul" ]) ]
  in
  let value =
    fix
      (fun self depth ->
        if depth = 0 then scalar
        else
          frequency
            [ (3, scalar);
              (1,
               let+ items = list_size (int_range 0 4) (self (depth - 1))
               and+ w = ws in
               "[" ^ w ^ String.concat ("," ^ w) items ^ "]");
              (2,
               let+ items = list_size (int_range 0 4) (pair str (self (depth - 1)))
               and+ w = ws in
               "{" ^ w
               ^ String.concat "," (List.map (fun (k, v) -> k ^ w ^ ":" ^ w ^ v) items)
               ^ w ^ "}") ])
      3
  in
  QCheck2.Test.make ~name:"json: strings parse as the buffered reference" ~count:800
    ~print:(Printf.sprintf "%S") value
    (fun text ->
      let rec go k =
        k > String.length text
        ||
        let p = String.sub text 0 k in
        (match (Json.parse p, parse_reference p) with
        | Ok a, Ok b -> same_json a b
        | Error e, Error f -> String.equal e f
        | _ -> false)
        && go (k + 1)
      in
      go 0)

(* Json.to_string renders a float exactly as Printf did: %.0f for an
   integral value below 1e15 in magnitude, %.17g for any other finite
   one, null for NaN and the infinities. *)
let prop_json_float_render =
  let open QCheck2.Gen in
  QCheck2.Test.make ~name:"json: floats render as Printf's %.0f and %.17g" ~count:3000
    ~print:(Printf.sprintf "%h")
    (frequency
       [ (3, map Int64.float_of_bits int64);
         (2, float_range (-1.0) 1.0);
         (1, map (fun k -> 1e15 +. float_of_int k) (int_range (-3) 3));
         (1, map float_of_int (int_range (-100_000) 100_000));
         (1,
          oneofl
            [ 0.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity; Float.max_float; 4.9e-324 ])
       ])
    (fun f ->
      let printf =
        if not (Float.is_finite f) then "null"
        else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
        else Printf.sprintf "%.17g" f
      in
      String.equal printf (Json.to_string (Json.Float f)))

(* ---------------- Metrics ---------------- *)

let test_counter_semantics () =
  let c = Metrics.counter "test.obs.counter" in
  let before = Metrics.value c in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  Metrics.add c 5;
  ci "incr/by/add accumulate" (before + 10) (Metrics.value c);
  let c' = Metrics.counter "test.obs.counter" in
  Metrics.incr c';
  ci "same name is same counter" (before + 11) (Metrics.value c);
  ci "lookup by name" (before + 11)
    (Option.get (Metrics.counter_value "test.obs.counter"));
  cb "unknown name is None" true (Metrics.counter_value "test.obs.nosuch" = None)

let test_kind_mismatch_raises () =
  ignore (Metrics.counter "test.obs.kinded");
  cb "re-registering as gauge raises" true
    (try
       ignore (Metrics.gauge "test.obs.kinded");
       false
     with Invalid_argument _ -> true)

let test_gauge_and_histogram () =
  let g = Metrics.gauge "test.obs.gauge" in
  cb "gauge unset initially" true (Metrics.gauge_read g = None);
  Metrics.set g 2.5;
  Metrics.set g 7.0;
  Alcotest.(check (float 0.0)) "gauge keeps last value" 7.0 (Option.get (Metrics.gauge_read g));
  let h = Metrics.histogram "test.obs.hist" in
  cb "empty histogram has no stats" true (Metrics.histogram_stats h = None);
  (* observe 1..100 out of order; exact order-statistic percentiles *)
  List.iter (fun i -> Metrics.observe h (float_of_int i)) (List.init 100 (fun i -> ((i * 37) mod 100) + 1));
  let s = Option.get (Metrics.histogram_stats h) in
  ci "count" 100 s.Metrics.count;
  Alcotest.(check (float 1e-9)) "sum" 5050.0 s.Metrics.sum;
  Alcotest.(check (float 1e-9)) "mean" 50.5 s.Metrics.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Metrics.min;
  Alcotest.(check (float 1e-9)) "max" 100.0 s.Metrics.max;
  cb "p50 near median" true (s.Metrics.p50 >= 50.0 && s.Metrics.p50 <= 51.0);
  cb "p90 near 90" true (s.Metrics.p90 >= 89.0 && s.Metrics.p90 <= 92.0);
  cb "p99 near 99" true (s.Metrics.p99 >= 98.0 && s.Metrics.p99 <= 100.0)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ---------------- bounded histograms and snapshots ---------------- *)

(* Percentile estimates stay within the documented bucket resolution
   (2^(1/32) - 1 ~ 2.2% relative) of the exact order statistics, over a
   heavy-tailed stream spanning several orders of magnitude. *)
let test_histogram_resolution () =
  let h = Metrics.histogram "test.obs.res" in
  let rng = Emc_util.Rng.create 11 in
  let n = 5000 in
  let samples = Array.init n (fun _ -> Float.exp (2.0 *. Emc_util.Rng.gaussian rng)) in
  Array.iter (Metrics.observe h) samples;
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  let exact q =
    let rank = max 1 (int_of_float (ceil (q /. 100.0 *. float_of_int n))) in
    sorted.(min (n - 1) (rank - 1))
  in
  List.iter
    (fun q ->
      let est = Option.get (Metrics.histogram_percentile h q) in
      let ex = exact q in
      cb (Printf.sprintf "p%g within bucket resolution" q) true
        (Float.abs (est -. ex) <= (0.023 *. ex) +. 1e-12))
    [ 50.0; 90.0; 99.0; 99.9 ];
  (* clamping into [min, max] makes a single-sample histogram exact *)
  let h1 = Metrics.histogram "test.obs.res.single" in
  Metrics.observe h1 0.0123;
  Alcotest.(check (float 0.0)) "single sample is exact" 0.0123
    (Option.get (Metrics.histogram_percentile h1 99.0))

(* Values outside the covered range (zero, negatives, huge) land in the
   edge buckets but count/sum/min/max stay exact. *)
let test_histogram_edge_buckets () =
  let h = Metrics.histogram "test.obs.edges" in
  List.iter (Metrics.observe h) [ 0.0; -3.0; 1e20; 1.0 ];
  let s = Option.get (Metrics.histogram_stats h) in
  ci "count includes out-of-range values" 4 s.Metrics.count;
  Alcotest.(check (float 0.0)) "min exact" (-3.0) s.Metrics.min;
  Alcotest.(check (float 0.0)) "max exact" 1e20 s.Metrics.max;
  Alcotest.(check (float 1e-6)) "sum exact" (1e20 -. 2.0) s.Metrics.sum;
  cb "percentiles clamped into [min, max]" true
    (s.Metrics.p50 >= s.Metrics.min && s.Metrics.p99 <= s.Metrics.max)

(* Run [f] in a forked child on a reset registry and ship the resulting
   snapshot back through its JSON serialization — exactly what the
   pre-forked daemon's cross-worker /metrics aggregation does. *)
let snapshot_in_child f =
  let rfd, wfd = Unix.pipe () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Unix.close rfd;
      Metrics.reset ();
      f ();
      let oc = Unix.out_channel_of_descr wfd in
      output_string oc (Json.to_string (Metrics.snapshot_to_json (Metrics.snapshot ())));
      flush oc;
      Unix._exit 0
  | pid -> (
      Unix.close wfd;
      let ic = Unix.in_channel_of_descr rfd in
      let text = In_channel.input_all ic in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      match Metrics.snapshot_of_json (Json.parse_exn text) with
      | Ok s -> s
      | Error e -> Alcotest.failf "snapshot did not survive JSON: %s" e)

(* The merge contract: merging per-process snapshots is equivalent to one
   process having seen the combined stream — identical bucket counts, so
   identical percentiles; counters sum exactly. *)
let test_snapshot_merge_equals_combined () =
  let rng = Emc_util.Rng.create 23 in
  let streams =
    List.map
      (fun n -> Array.init n (fun _ -> Float.exp (1.5 *. Emc_util.Rng.gaussian rng)))
      [ 400; 150; 900 ]
  in
  let observe_stream s =
    let h = Metrics.histogram "test.obs.merge.h" in
    let c = Metrics.counter "test.obs.merge.c" in
    Array.iter
      (fun v ->
        Metrics.observe h v;
        Metrics.incr c)
      s
  in
  let parts = List.map (fun s -> snapshot_in_child (fun () -> observe_stream s)) streams in
  let combined = snapshot_in_child (fun () -> List.iter observe_stream streams) in
  let merged = List.fold_left Metrics.merge Metrics.snapshot_empty parts in
  let counter_of s =
    Option.value ~default:(-1) (List.assoc_opt "test.obs.merge.c" (Metrics.snapshot_counters s))
  in
  ci "merged counters sum exactly" (counter_of combined) (counter_of merged);
  ci "total is the stream total" (400 + 150 + 900) (counter_of merged);
  let hsnap_of s = List.assoc "test.obs.merge.h" (Metrics.snapshot_histograms s) in
  let hm = hsnap_of merged and hc = hsnap_of combined in
  let sm = Option.get (Metrics.hsnap_stats hm) and sc = Option.get (Metrics.hsnap_stats hc) in
  ci "merged count" sc.Metrics.count sm.Metrics.count;
  Alcotest.(check (float 0.0)) "merged min" sc.Metrics.min sm.Metrics.min;
  Alcotest.(check (float 0.0)) "merged max" sc.Metrics.max sm.Metrics.max;
  cb "merged sum within fp tolerance" true
    (Float.abs (sm.Metrics.sum -. sc.Metrics.sum) <= 1e-9 *. Float.abs sc.Metrics.sum);
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "merged p%g identical to combined-stream p%g" q q)
        (Option.get (Metrics.hsnap_percentile hc q))
        (Option.get (Metrics.hsnap_percentile hm q)))
    [ 50.0; 90.0; 99.0; 99.9 ];
  (* the Prometheus cumulative series agrees between the two *)
  cb "cumulative le= series identical" true
    (Metrics.hsnap_cumulative hc = Metrics.hsnap_cumulative hm);
  (* snapshot_empty is the unit of merge *)
  let m2 = Metrics.merge merged Metrics.snapshot_empty in
  ci "merge with empty is identity (counters)" (counter_of merged) (counter_of m2);
  cb "merge with empty is identity (cumulative)" true
    (Metrics.hsnap_cumulative (hsnap_of m2) = Metrics.hsnap_cumulative hm)

let test_snapshot_json_rejects_garbage () =
  cb "wrong schema rejected" true
    (Result.is_error (Metrics.snapshot_of_json (Json.parse_exn {|{"schema":"nope"}|})));
  cb "non-object rejected" true (Result.is_error (Metrics.snapshot_of_json (Json.Int 3)));
  (* gauges: right-hand side wins on merge *)
  let a = snapshot_in_child (fun () -> Metrics.set (Metrics.gauge "test.obs.merge.g") 1.0) in
  let b = snapshot_in_child (fun () -> Metrics.set (Metrics.gauge "test.obs.merge.g") 2.0) in
  let m = Metrics.merge a b in
  Alcotest.(check (float 0.0)) "gauge merge keeps the right value" 2.0
    (List.assoc "test.obs.merge.g" (Metrics.snapshot_gauges m))

let test_dump_and_reset () =
  let c = Metrics.counter "test.obs.dumpme" in
  Metrics.add c 3;
  let txt = Metrics.dump_text () in
  cb "dump mentions the counter" true (contains txt "test.obs.dumpme");
  (match Json.member "test.obs.dumpme" (Metrics.to_json ()) with
  | Some (Json.Int _) -> ()
  | _ -> Alcotest.fail "to_json carries the counter");
  Metrics.reset ();
  ci "reset zeroes counters" 0 (Metrics.value c);
  cb "reset keeps registration" true (Metrics.counter_value "test.obs.dumpme" = Some 0)

(* ---------------- Log ---------------- *)

let test_log_levels () =
  let saved = Log.level () in
  Fun.protect ~finally:(fun () -> Log.set_level saved) @@ fun () ->
  cb "parse debug" true (Log.level_of_string "DEBUG" = Some Log.Debug);
  cb "parse warning" true (Log.level_of_string "warning" = Some Log.Warn);
  cb "parse quiet" true (Log.level_of_string "quiet" = Some Log.Error);
  cb "parse junk" true (Log.level_of_string "blah" = None);
  Log.set_level Log.Warn;
  cb "warn enabled at warn" true (Log.enabled Log.Warn);
  cb "error enabled at warn" true (Log.enabled Log.Error);
  cb "info disabled at warn" false (Log.enabled Log.Info);
  cb "debug disabled at warn" false (Log.enabled Log.Debug);
  Log.set_level Log.Debug;
  cb "debug enabled at debug" true (Log.enabled Log.Debug)

(* ---------------- Trace ---------------- *)

let num = function
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | _ -> Alcotest.fail "expected a number"

let test_trace_spans_nest () =
  let file = Filename.temp_file "emc_trace" ".json" in
  Fun.protect ~finally:(fun () -> Trace.disable (); Sys.remove file) @@ fun () ->
  Trace.enable file;
  cb "enabled after enable" true (Trace.enabled ());
  let r =
    Trace.with_span ~cat:"test" "outer" (fun () ->
        Trace.instant "marker";
        Trace.with_span ~cat:"test"
          ~args:(fun () -> [ ("k", Json.Int 7) ])
          "inner"
          (fun () -> 41 + 1))
  in
  ci "span returns body value" 42 r;
  Trace.counter "test.series" [ ("a", 1.0); ("b", 2.0) ];
  Trace.flush ();
  let ic = open_in file in
  let n = in_channel_length ic in
  let contents = really_input_string ic n in
  close_in ic;
  let doc = Json.parse_exn contents in
  let events =
    match Json.member "traceEvents" doc with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "traceEvents list missing"
  in
  let find name =
    List.find
      (fun e -> Json.member "name" e = Some (Json.Str name))
      events
  in
  let outer = find "outer" and inner = find "inner" in
  cb "outer is a complete event" true (Json.member "ph" outer = Some (Json.Str "X"));
  cb "instant has scope" true (Json.member "s" (find "marker") = Some (Json.Str "t"));
  cb "counter event present" true (Json.member "ph" (find "test.series") = Some (Json.Str "C"));
  (match Json.member "args" inner with
  | Some a -> cb "span args recorded" true (Json.member "k" a = Some (Json.Int 7))
  | None -> Alcotest.fail "inner span lost its args");
  let ts e = num (Option.get (Json.member "ts" e)) in
  let dur e = num (Option.get (Json.member "dur" e)) in
  let eps = 1.0 (* µs of float slack *) in
  cb "inner starts after outer" true (ts inner >= ts outer -. eps);
  cb "inner ends before outer ends" true
    (ts inner +. dur inner <= ts outer +. dur outer +. eps);
  (* disabled tracing is transparent *)
  Trace.disable ();
  cb "disabled after disable" false (Trace.enabled ());
  ci "with_span still runs the body" 5 (Trace.with_span "off" (fun () -> 5))

let test_trace_span_records_exception () =
  let file = Filename.temp_file "emc_trace" ".json" in
  Fun.protect ~finally:(fun () -> Trace.disable (); Sys.remove file) @@ fun () ->
  Trace.enable file;
  (try Trace.with_span "boom" (fun () -> failwith "boom") with Failure _ -> ());
  Trace.flush ();
  let ic = open_in file in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.member "traceEvents" (Json.parse_exn contents) with
  | Some (Json.List [ e ]) -> (
      cb "span survived the exception" true (Json.member "name" e = Some (Json.Str "boom"));
      match Json.member "args" e with
      | Some a -> cb "tagged error=true" true (Json.member "error" a = Some (Json.Bool true))
      | None -> Alcotest.fail "error tag missing")
  | _ -> Alcotest.fail "expected exactly one event"

(* An unrecognized EMC_SCALE falls back to quick and routes its complaint
   through the logger (silenced here) rather than a bare eprintf. *)
let test_scale_warning_routed () =
  let saved = Log.level () and saved_env = Sys.getenv_opt "EMC_SCALE" in
  Fun.protect
    ~finally:(fun () ->
      Log.set_level saved;
      Unix.putenv "EMC_SCALE" (Option.value ~default:"" saved_env))
  @@ fun () ->
  Log.set_level Log.Error;
  Unix.putenv "EMC_SCALE" "bogus";
  let s = Emc_core.Scale.of_env () in
  cs "falls back to quick" "quick" s.Emc_core.Scale.name

(* ---------------- SMARTS telemetry regression ---------------- *)

(* An unreachably tight CI target must drive the refinement loop: the
   interval halves (bumping smarts.refinements) until max_refinements is
   spent, and the achieved CI lands in the gauge/histogram. *)
let test_smarts_refinement_fires () =
  let w = Emc_workloads.Registry.find "gzip" in
  let arrays = w.Emc_workloads.Workload.arrays ~scale:0.3 ~variant:Emc_workloads.Workload.Train in
  let _, _, prog = Helpers.machine ~flags:Emc_opt.Flags.o2 ~arrays w.Emc_workloads.Workload.source in
  let before = Option.value ~default:0 (Metrics.counter_value "smarts.refinements") in
  let r =
    Emc_sim.Smarts.run_sampled
      ~params:
        { Emc_sim.Smarts.default_params with interval = 16; target_ci = 1e-6; max_refinements = 2 }
      Emc_sim.Config.typical prog ~inputs:arrays
  in
  let after = Option.value ~default:0 (Metrics.counter_value "smarts.refinements") in
  cb "refinement fired at least once" true (after >= before + 1);
  cb "achieved ci recorded in gauge" true
    (match Metrics.gauge_value "smarts.last_ci_rel" with
    | Some ci -> ci = r.Emc_sim.Smarts.ci_rel
    | None -> false);
  cb "ci histogram has samples" true
    (match Metrics.stats_of "smarts.ci_rel" with
    | Some s -> s.Metrics.count >= 1
    | None -> false);
  cb "run counter advanced" true
    (Option.value ~default:0 (Metrics.counter_value "sim.runs") >= 1)

(* A refinement starts its next attempt only after the current attempt's
   span has closed, so the [smarts.attempt] spans of one sampled run are
   pairwise disjoint and each one times its own attempt. *)
let test_smarts_attempt_spans_disjoint () =
  let w = Emc_workloads.Registry.find "gzip" in
  let arrays = w.Emc_workloads.Workload.arrays ~scale:0.1 ~variant:Emc_workloads.Workload.Train in
  let _, _, prog = Helpers.machine ~flags:Emc_opt.Flags.o2 ~arrays w.Emc_workloads.Workload.source in
  let file = Filename.temp_file "emc_trace" ".json" in
  Fun.protect ~finally:(fun () -> Trace.disable (); Sys.remove file) @@ fun () ->
  Trace.enable file;
  let r =
    Emc_sim.Smarts.run_sampled
      ~params:
        { Emc_sim.Smarts.default_params with interval = 16; target_ci = 1e-6; max_refinements = 2 }
      Emc_sim.Config.typical prog ~inputs:arrays
  in
  Trace.flush ();
  cb "sampled" false r.Emc_sim.Smarts.detailed;
  let ic = open_in file in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let attempts =
    match Json.member "traceEvents" (Json.parse_exn contents) with
    | Some (Json.List l) ->
        List.filter_map
          (fun e ->
            if Json.member "name" e = Some (Json.Str "smarts.attempt") then
              let field k = num (Option.get (Json.member k e)) in
              Some (field "ts", field "ts" +. field "dur")
            else None)
          l
    | _ -> Alcotest.fail "traceEvents list missing"
  in
  ci "one span per attempt" 3 (List.length attempts);
  let eps = 1.0 (* µs of float slack *) in
  List.iteri
    (fun i (s1, e1) ->
      List.iteri
        (fun j (s2, e2) ->
          if i < j then
            cb (Printf.sprintf "attempts %d and %d are disjoint" i j) true
              (e1 <= s2 +. eps || e2 <= s1 +. eps))
        attempts)
    attempts

let suite =
  [
    Alcotest.test_case "json: printing and escaping" `Quick test_json_print;
    Alcotest.test_case "json: parse round-trips" `Quick test_json_parse_roundtrip;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 31 |]) prop_json_numbers;
    Alcotest.test_case "json: serve-predict coordinates read directly" `Quick
      test_json_coordinates_direct;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 32 |]) prop_json_float_render;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 33 |]) prop_json_strings;
    Alcotest.test_case "metrics: counter semantics" `Quick test_counter_semantics;
    Alcotest.test_case "metrics: kind mismatch raises" `Quick test_kind_mismatch_raises;
    Alcotest.test_case "metrics: gauge and histogram" `Quick test_gauge_and_histogram;
    Alcotest.test_case "metrics: dump and reset" `Quick test_dump_and_reset;
    Alcotest.test_case "metrics: percentiles within bucket resolution" `Quick
      test_histogram_resolution;
    Alcotest.test_case "metrics: edge buckets keep exact count/sum/min/max" `Quick
      test_histogram_edge_buckets;
    Alcotest.test_case "metrics: merging snapshots equals the combined stream" `Quick
      test_snapshot_merge_equals_combined;
    Alcotest.test_case "metrics: snapshot json validation and gauge merge" `Quick
      test_snapshot_json_rejects_garbage;
    Alcotest.test_case "log: levels and parsing" `Quick test_log_levels;
    Alcotest.test_case "trace: spans nest in the json" `Quick test_trace_spans_nest;
    Alcotest.test_case "trace: exception tags the span" `Quick test_trace_span_records_exception;
    Alcotest.test_case "scale: bad EMC_SCALE warns and falls back" `Quick
      test_scale_warning_routed;
    Alcotest.test_case "smarts: refinement fires and is recorded" `Quick
      test_smarts_refinement_fires;
    Alcotest.test_case "smarts: attempt spans are disjoint" `Quick
      test_smarts_attempt_spans_disjoint;
  ]
