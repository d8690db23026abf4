type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* The primitive Printf's %.0f and %.17g end in, without Printf's
   interpretation of the format: the same bytes for every float *)
external format_float : string -> float -> string = "caml_format_float"

let float_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then format_float "%.0f" f
  else format_float "%.17g" f

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_finite f then Buffer.add_string buf (float_to_string f)
      else Buffer.add_string buf "null"
  | Str s -> escape_to buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_to buf k;
          Buffer.add_char buf ':';
          to_buffer buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  to_buffer buf j;
  Buffer.contents buf

(* ---------------- numbers ----------------

   The parser scans a number as the longest text of an optional '-',
   digits, an optional '.' and digits, and an optional 'e' or 'E', sign
   and digits, any of the digits possibly none; int_of_string_opt, then
   float_of_string, decide whether it is one, its constructor and its
   bits. [number] reads a float text in that same scan and builds its
   double directly where that is provably exact; every other text goes to
   that pair. *)

(* 10^k for k = 0 .. 22, each an exact double *)
let pow10 =
  [| 1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12; 1e13; 1e14; 1e15;
     1e16; 1e17; 1e18; 1e19; 1e20; 1e21; 1e22 |]

(* m·10^q rounded to nearest, for 0 < m < 10^18 and |q| <= 22, or nan
   where the guard cannot decide it. Clinger's fast path, extended:
   - Up to 2^53, m is an exact double, as is 10^|q|, so one IEEE
     operation rounds correctly.
   - Beyond, m = a + b with a = float m and b exact, |b| <= 64. For q < 0
     and p = 10^-q, q1 = a/p rounded; the remainder r = a - q1·p of a
     rounded division is a double, which the fma computes exactly, so
     m/p = q1 + (r + b)/p, and d = (r + b)/p is off by less than 2^-44/p.
     For q >= 0 and p = 10^q, q1 = a·p rounded, the fma gives its error
     a·p - q1 exactly, and d = b·p + that error is off by less than
     2^-45·p.
   - t = q1 + d rounded, and Fast2Sum gives e = (q1 + d) - t exactly. A
     gap next to t is more than 1/(2p) (p/2 for q >= 0), so 2^-40 of the
     gap g on e's side exceeds d's error: when |e| + 2^-40·g < g/2,
     m·10^q lies strictly inside t's rounding interval, and t is its
     rounding. *)
let decimal m q =
  if m <= 1 lsl 53 then
    if q >= 0 then Float.of_int m *. pow10.(q) else Float.of_int m /. pow10.(-q)
  else
    let a = Float.of_int m in
    let b = Float.of_int (m - Float.to_int a) in
    let p = pow10.(abs q) in
    let q1 = if q < 0 then a /. p else a *. p in
    let d =
      if q < 0 then (Float.fma (-.q1) p a +. b) /. p else Float.fma b p (Float.fma a p (-.q1))
    in
    let t = q1 +. d in
    let e = d -. (t -. q1) in
    let g =
      if e >= 0.0 then Float.next_after t Float.infinity -. t else t -. Float.next_after t 0.0
    in
    if Float.abs e +. (g *. 0x1p-40) < g *. 0.5 then t else Float.nan

external get64 : string -> int -> int64 = "%caml_string_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"
external big_endian : unit -> bool = "%big_endian"

(* The 8 bytes from [i] of [s] read as one little-endian word: their
   decimal value when every one is an ASCII digit, else -1. A byte is a
   digit when its high nibble is 3 and so is that of the byte plus 6;
   a byte that carries into the next when 6 is added has high nibble F
   and fails on its own. The value pairs digits, then pairs, then
   quads, by multiplies whose cross terms land outside bits 32-63. *)
let eight_digits s i =
  let x = if big_endian () then swap64 (get64 s i) else get64 s i in
  let high = 0xF0F0F0F0F0F0F0F0L in
  let nibbles =
    Int64.logor (Int64.logand x high)
      (Int64.shift_right_logical (Int64.logand (Int64.add x 0x0606060606060606L) high) 4)
  in
  if nibbles <> 0x3333333333333333L then -1
  else
    let v = Int64.sub x 0x3030303030303030L in
    let v = Int64.add (Int64.mul v 10L) (Int64.shift_right_logical v 8) in
    let low = 0x000000FF000000FFL in
    Int64.to_int
      (Int64.shift_right_logical
         (Int64.add
            (Int64.mul (Int64.logand v low) 0x000F424000000064L)
            (Int64.mul (Int64.logand (Int64.shift_right_logical v 16) low) 0x0000271000000001L))
         32)

(* The number text from [i] of [s], read in one pass: [pos] holds the
   text's start and is left at its end. [m] keeps the first 18
   significant digits, [nd] counts them (-1 before any digit, 0 while
   every digit is a zero, 19 past 18), and [q] is the power of ten of
   m's last digit. The value is
   [decimal]'s for a text with a '.' or an exponent, and nan for every
   text that must go to int_of_string_opt or float_of_string.

   Once m > 0 and nd <= 10, eight digits in a row are taken in one step:
   each of them would take the byte loop's [nd < 18] branch, so the step
   leaves m, nd and q exactly as eight byte steps would. *)
let rec significand s pos i m nd q dot =
  if i = String.length s then value s pos i m nd q dot
  else
    match String.unsafe_get s i with
    | '0' .. '9' as c ->
        let v = if m > 0 && nd <= 10 && i + 8 <= String.length s then eight_digits s i else -1 in
        if v >= 0 then
          significand s pos (i + 8) ((m * 100_000_000) + v) (nd + 8) (if dot then q - 8 else q) dot
        else
          let q = if dot then q - 1 else q in
          if m = 0 && c = '0' then significand s pos (i + 1) 0 0 q dot
          else if nd < 18 then
            let nd = if nd < 0 then 1 else nd + 1 in
            significand s pos (i + 1) ((10 * m) + Char.code c - 48) nd q dot
          else significand s pos (i + 1) m 19 q dot
    | '.' when not dot -> significand s pos (i + 1) m nd q true
    | 'e' | 'E' ->
        let sign = if i + 1 < String.length s then String.unsafe_get s (i + 1) else ' ' in
        if sign = '-' || sign = '+' then exponent s pos (i + 2) m nd q (sign = '-') (-1)
        else exponent s pos (i + 1) m nd q false (-1)
    | _ -> value s pos i m nd q dot

(* The exponent's digits: [e] is their value so far, -1 before the first
   and at least 100,000 once it is too large to matter. *)
and exponent s pos i m nd q neg e =
  match if i < String.length s then String.unsafe_get s i else ' ' with
  | '0' .. '9' as c ->
      let d = Char.code c - 48 in
      let e = if e < 0 then d else if e < 100_000 then (10 * e) + d else e in
      exponent s pos (i + 1) m nd q neg e
  | _ -> value s pos i m nd (if neg then q - e else q + e) (e >= 0 && e < 100_000)

and value s pos i m nd q float_text =
  let start = !pos in
  pos := i;
  if (not float_text) || nd < 0 || nd > 18 || (m > 0 && abs q > 22) then Float.nan
  else
    let f = if m = 0 then 0.0 else decimal m q in
    if String.unsafe_get s start = '-' then -.f else f

(* The value of the number text at [!pos] of [s], [pos] left at its end *)
let number s pos =
  let i = !pos in
  let digits = if i < String.length s && String.unsafe_get s i = '-' then i + 1 else i in
  significand s pos digits 0 (-1) 0 false

let direct_float text =
  let pos = ref 0 in
  let f = number text pos in
  if !pos = String.length text && not (Float.is_nan f) then Some f else None

(* ---------------- parser ---------------- *)

exception Parse_error of string

let parse_exn s =
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
  (* A string with no '\\' before its closing quote is one slice of [s];
     one with an escape copies its text through a buffer from the first
     '\\' on. *)
  let rec plain i =
    if i < n then match String.unsafe_get s i with '"' | '\\' -> i | _ -> plain (i + 1) else i
  in
  let rec escaped buf =
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
            (* UTF-8 encode the BMP code point *)
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
        escaped buf
    | c -> Buffer.add_char buf c; advance (); escaped buf
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    let stop = plain start in
    if stop < n && String.unsafe_get s stop = '"' then begin
      pos := stop + 1;
      String.sub s start (stop - start)
    end
    else begin
      let buf = Buffer.create 16 in
      Buffer.add_substring buf s start (stop - start);
      pos := stop;
      escaped buf;
      Buffer.contents buf
    end
  in
  let parse_number () =
    let start = !pos in
    let f = number s pos in
    if not (Float.is_nan f) then Float f
    else
      (* int_of_string_opt refuses every text with a '.' or an exponent *)
      let text = String.sub s start (!pos - start) in
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          (* the scan admits texts such as "." and "1e" *)
          match float_of_string text with
          | f -> Float f
          | exception Failure _ -> fail "invalid number")
  in
  let rec parse_value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match s.[!pos] with
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '[' ->
        advance ();
        skip_ws ();
        if at ']' then begin advance (); List [] end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while at ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | '{' ->
        advance ();
        skip_ws ();
        if at '}' then begin advance (); Obj [] end
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
          Obj (List.rev !items)
        end
    | _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse s =
  match parse_exn s with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

let parse_exn s =
  match parse s with Ok v -> v | Error msg -> failwith ("Json.parse: " ^ msg)

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

(* Bit-exact float transport: JSON numbers round through decimal printing,
   so values that must round-trip exactly (measurement caches, the fleet
   wire protocol) travel as OCaml %h hex-float literals inside strings. *)

let hex f = Str (Printf.sprintf "%h" f)

(* ---------------- typed readers ---------------- *)

let field name j =
  match member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let as_str = function Str s -> Ok s | _ -> Error "expected a string"

let as_int = function Int i -> Ok i | _ -> Error "expected an int"

let as_bool = function Bool b -> Ok b | _ -> Error "expected a bool"

let as_list = function List l -> Ok l | _ -> Error "expected a list"

let as_float = function
  | Float f -> Ok f
  | Int i -> Ok (float_of_int i)
  | Str s -> (
      match float_of_string_opt s with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "malformed number %S" s))
  | _ -> Error "expected a number"

let hex_of j = Result.to_option (as_float j)

let map_result f l =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> ( match f x with Ok y -> go (y :: acc) rest | Error e -> Error e)
  in
  go [] l

let get name read j = Result.bind (field name j) read
let list_of read j = Result.bind (as_list j) (map_result read)
