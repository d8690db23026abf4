(** Minimal JSON values — the common currency of the observability layer
    (metric dumps, structured log lines, Chrome trace events).

    Deliberately tiny and dependency-free: an emitter plus a strict
    recursive-descent parser (used by the tests to check that every file
    the layer writes is well-formed). *)

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

val member : string -> t -> t option
(** [member k j] is the value under key [k] when [j] is an [Obj]. *)

val hex : float -> t
(** The value as a [Str] holding an OCaml [%h] hex-float literal — the
    bit-exact transport used by the measurement cache and the fleet wire
    protocol (plain JSON numbers round through lossy decimal printing). *)

val hex_of : t -> float option
(** Read a float written by {!hex}; plain JSON numbers are also accepted. *)

(** {1 Typed readers}

    For strict schema decoding (model artifacts): every mismatch is an
    [Error] saying what was expected, never an exception. *)

val field : string -> t -> (t, string) result
(** {!member}, with a missing key an [Error] naming it. *)

val as_str : t -> (string, string) result
val as_int : t -> (int, string) result
val as_bool : t -> (bool, string) result
val as_list : t -> (t list, string) result

val as_float : t -> (float, string) result
(** A JSON number, or a string holding any OCaml float literal ({!hex}'s
    included). *)

val map_result : ('a -> ('b, string) result) -> 'a list -> ('b list, string) result
(** Map in order, stopping at the first [Error]. *)
