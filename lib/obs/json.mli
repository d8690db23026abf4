(** Minimal JSON values — the common currency of the observability layer
    (metric dumps, structured log lines, Chrome trace events) and of every
    document read from a socket or a file.

    Deliberately tiny and dependency-free: an emitter plus a strict
    recursive-descent parser, the one decoder of every socket body
    ([/predict] and the other serve endpoints, the fleet wire, the store
    and membership RPCs), of artifacts and of metrics snapshots.

    Numbers keep the bits [int_of_string_opt] and [float_of_string] give
    their text. A text with a ['.'] or an exponent, at most 18 significant
    digits and a decimal exponent within ±22 is converted in the parser's
    own scan, by a guarded extension of Clinger's fast path that answers
    only where its rounding is provably that of [float_of_string]; every
    other text (integers, longer significands, larger exponents, malformed
    texts, and the cases the guard leaves undecided) goes to those two
    functions. The scan takes eight digits in one step, read as one
    little-endian word, once the significand has a non-zero digit and at
    most 10 significant digits: each of the eight would then take the
    byte loop's branch that appends a digit, so the step's arithmetic is
    the byte loop's, and so is every value. Floats render as [Printf]'s
    [%.0f] (integral, below 1e15) or [%.17g], byte for byte.

    A string with no ['\\'] before its closing quote is read as one slice
    of the input; one with an escape is copied through a buffer from its
    first ['\\'] on. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_buffer : Buffer.t -> t -> unit

val to_string : t -> string
(** Compact (no whitespace) rendering. Non-finite floats become [null] —
    JSON has no encoding for them. *)

val parse : string -> (t, string) result
(** Strict parse of a complete document; trailing garbage is an error.
    Numbers without [.]/[e] parse as {!Int}, others as {!Float}. Total:
    malformed input of any kind, a number such as [1e] or a [\u] escape
    without four hex digits included, is an [Error], never an exception. *)

val parse_exn : string -> t
(** Like {!parse}; raises [Failure] with the error message. *)

val direct_float : string -> float option
(** [Some] the float {!parse} reads from the number text [s] by the
    direct conversion, [None] where it hands [s] to [int_of_string_opt]
    or [float_of_string] instead, or where [s] is not one number text.
    Lets the tests pin which texts take the direct conversion. *)

val member : string -> t -> t option
(** [member k j] is the value under key [k] when [j] is an [Obj]. *)

val hex : float -> t
(** The value as a [Str] holding an OCaml [%h] hex-float literal — the
    bit-exact transport used by the measurement cache and the fleet wire
    protocol (plain JSON numbers round through lossy decimal printing). *)

val hex_of : t -> float option
(** {!as_float} as an option: reads a float written by {!hex}, or a plain
    JSON number. *)

(** {1 Typed readers}

    For strict schema decoding of every document read from a socket or a
    file (model artifacts, the fleet wire, store and membership RPCs,
    [/predict] bodies, metrics snapshots): every mismatch is an [Error]
    saying what was expected, never an exception. *)

val field : string -> t -> (t, string) result
(** {!member}, with a missing key an [Error] naming it. *)

val as_str : t -> (string, string) result
val as_int : t -> (int, string) result
val as_bool : t -> (bool, string) result
val as_list : t -> (t list, string) result

val as_float : t -> (float, string) result
(** A JSON number, or a string holding any OCaml float literal ({!hex}'s
    included). The errors are [malformed number "S"] and [expected a
    number]; serve's [/predict] answers them verbatim. *)

val map_result : ('a -> ('b, 'e) result) -> 'a list -> ('b list, 'e) result
(** Map in order, stopping at the first [Error], which is returned
    unchanged: the error type is the caller's. *)

val get : string -> (t -> ('a, string) result) -> t -> ('a, string) result
(** [get k read j] is {!field} [k] of [j], read by [read]. *)

val list_of : (t -> ('a, string) result) -> t -> ('a list, string) result
(** {!as_list}, each element read by [read] ({!map_result}). *)
