(** Dead code elimination: removes pure instructions (and loads — reads
    cannot trap) whose results are never used, iterating whole dead chains
    to a fixpoint. Runs unconditionally after the flag-gated passes, as gcc
    does at any -O level. *)

val run_func : Emc_ir.Ir.func -> bool
(** Returns [true] if anything was removed. *)

val run : Emc_ir.Ir.program -> Emc_ir.Ir.program
