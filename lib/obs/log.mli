(** Leveled, structured logging for the pipeline.

    Two sinks, both off by default:
    - human-readable lines on stderr, gated by a level ([EMC_LOG=debug|
      info|warn|error|quiet], default [warn] so misconfiguration warnings
      still surface but the normal path is silent);
    - a JSONL structured-event file ([EMC_LOG_FILE=<path>]), one JSON
      object per emitted event, for machine consumption.

    Formatting is printf-style and only happens when the level is enabled
    ([Printf.ikfprintf] otherwise), so disabled log statements cost a
    level comparison. *)

type level = Error | Warn | Info | Debug

val level_of_string : string -> level option
(** Accepts ["error"], ["warn"]/["warning"], ["info"], ["debug"], and
    ["quiet"]/["off"]/["silent"] (mapped to {!Error}); case-insensitive. *)

val set_level : level -> unit
val level : unit -> level
val enabled : level -> bool

(** {1 Emitting}

    Each call emits one event at its level, tagged with its source
    subsystem ([smarts], [prepare], [ga], ...) and optional structured
    fields. The stderr line shows elapsed process time, level, source,
    message and fields; the JSONL record carries the same data keyed. *)

val err :
  src:string -> ?fields:(string * Json.t) list -> ('a, unit, string, unit) format4 -> 'a

val warn :
  src:string -> ?fields:(string * Json.t) list -> ('a, unit, string, unit) format4 -> 'a

val info :
  src:string -> ?fields:(string * Json.t) list -> ('a, unit, string, unit) format4 -> 'a

val debug :
  src:string -> ?fields:(string * Json.t) list -> ('a, unit, string, unit) format4 -> 'a
