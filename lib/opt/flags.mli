(** Compiler configuration: the 14 optimization flags and heuristics of the
    paper's Table 1, with gcc-4.0.1-like names, ranges and defaults. *)

type t = {
  inline_functions : bool;  (** #1 -finline-functions *)
  unroll_loops : bool;  (** #2 -funroll-loops *)
  schedule_insns2 : bool;  (** #3 -fschedule-insns2 (pre- and post-RA) *)
  loop_optimize : bool;  (** #4 -floop-optimize (LICM etc.) *)
  gcse : bool;  (** #5 -fgcse, with constant/copy propagation *)
  strength_reduce : bool;  (** #6 -fstrength-reduce *)
  omit_frame_pointer : bool;  (** #7 -fomit-frame-pointer *)
  reorder_blocks : bool;  (** #8 -freorder-blocks *)
  prefetch_loop_arrays : bool;  (** #9 -fprefetch-loop-arrays *)
  max_inline_insns_auto : int;  (** #10, range 50..150 *)
  inline_unit_growth : int;  (** #11, percent, range 25..75 *)
  inline_call_cost : int;  (** #12, range 12..20 *)
  max_unroll_times : int;  (** #13, range 4..12 *)
  max_unrolled_insns : int;  (** #14, range 100..300 *)
}

val o0 : t
val o1 : t

val o2 : t
(** The scalar optimizations, no inlining/unrolling/prefetching — the
    paper's baseline for every speedup number. *)

val o3 : t
(** O2 plus -finline-functions and -fprefetch-loop-arrays, matching the
    "default O3" flag row of the paper's Table 6. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
