(** Microarchitectural configuration: the 11 parameters of the paper's
    Table 2, with the same ranges, plus the three target configurations of
    Table 5. *)

type t = {
  issue_width : int;  (** #15: 2 or 4; also selects the functional-unit mix *)
  bpred_size : int;  (** #16: entries per table of the combined predictor, 512–8192 *)
  ruu_size : int;  (** #17: register update unit entries, 16–128 *)
  icache_kb : int;  (** #18: 8–128 KB *)
  dcache_kb : int;  (** #19: 8–128 KB *)
  dcache_assoc : int;  (** #20: 1–2 *)
  dcache_lat : int;  (** #21: 1–3 cycles *)
  l2_kb : int;  (** #22: 256–8192 KB, unified *)
  l2_assoc : int;  (** #23: 1–8 *)
  l2_lat : int;  (** #24: 6–16 cycles *)
  mem_lat : int;  (** #25: 50–150 cycles *)
}

val constrained : t
(** Table 5, "Constrained": the low-end corner of the design space. *)

val typical : t
(** Table 5, "Typical": a mid-range superscalar. *)

val aggressive : t
(** Table 5, "Aggressive": the high-end corner. *)

val named : (string * t) list
(** The three Table-5 configurations by name, in table order. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
