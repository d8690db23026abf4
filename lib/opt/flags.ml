(** Compiler configuration: the 14 optimization flags and heuristics of the
    paper's Table 1, with the same names, ranges and gcc-4.0.1-like default
    values (the "default O3" row of Table 6). *)

type t = {
  inline_functions : bool;  (** #1 -finline-functions *)
  unroll_loops : bool;  (** #2 -funroll-loops *)
  schedule_insns2 : bool;  (** #3 -fschedule-insns2 *)
  loop_optimize : bool;  (** #4 -floop-optimize (LICM etc.) *)
  gcse : bool;  (** #5 -fgcse (+ constant/copy propagation) *)
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

(* All flags off, heuristics at the paper's default (Table 6, "default O3"
   row): 100 / 50 / 16 / 8 / 200. *)
let default_heuristics =
  {
    inline_functions = false;
    unroll_loops = false;
    schedule_insns2 = false;
    loop_optimize = false;
    gcse = false;
    strength_reduce = false;
    omit_frame_pointer = false;
    reorder_blocks = false;
    prefetch_loop_arrays = false;
    max_inline_insns_auto = 100;
    inline_unit_growth = 50;
    inline_call_cost = 16;
    max_unroll_times = 8;
    max_unrolled_insns = 200;
  }

let o0 = default_heuristics

let o1 = { o0 with loop_optimize = true; gcse = true }

(** -O2: the scalar optimizations, no inlining/unrolling/prefetching — the
    paper's baseline for all speedup numbers. *)
let o2 =
  {
    o1 with
    schedule_insns2 = true;
    strength_reduce = true;
    omit_frame_pointer = true;
    reorder_blocks = true;
  }

(** -O3 per the "default O3" row of Table 6: O2 plus -finline-functions and
    -fprefetch-loop-arrays (unrolling stays off). *)
let o3 = { o2 with inline_functions = true; prefetch_loop_arrays = true }

let pp fmt f =
  let b x = if x then "1" else "0" in
  Format.fprintf fmt
    "inline=%s unroll=%s sched2=%s loopopt=%s gcse=%s strred=%s omitfp=%s reorder=%s prefetch=%s \
     inl-insns=%d inl-growth=%d inl-cost=%d unroll-times=%d unroll-insns=%d"
    (b f.inline_functions) (b f.unroll_loops) (b f.schedule_insns2) (b f.loop_optimize) (b f.gcse)
    (b f.strength_reduce) (b f.omit_frame_pointer) (b f.reorder_blocks) (b f.prefetch_loop_arrays)
    f.max_inline_insns_auto f.inline_unit_growth f.inline_call_cost f.max_unroll_times
    f.max_unrolled_insns

let to_string f = Format.asprintf "%a" pp f
