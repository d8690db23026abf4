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
