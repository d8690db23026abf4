(** Workload interface: a MiniC program plus input generators.

    Each workload mimics the dominant behaviour of its SPEC CPU2000
    namesake (the seven program/input pairs of the paper's Table 3).
    Programs read size parameters from the [params] global array and data
    from input arrays the harness fills before simulation; results are
    emitted with [out], so every workload produces a checksum trace that
    must be bit-identical across compiler and microarchitecture
    configurations. *)

type data = Emc_ir.Memlayout.data = DInt of int array | DFloat of float array

type variant = Train | Ref
(** The paper's train/ref input distinction (§6.3, Table 7): models are
    built on [Train]; [Ref] checks how prescribed settings transfer. *)

val variant_name : variant -> string

type t = {
  name : string;  (** e.g. "179.art" *)
  description : string;
  source : string;  (** MiniC source text *)
  arrays : scale:float -> variant:variant -> (string * data) list;
      (** deterministic input-array contents, including [params]; [scale]
          multiplies iteration counts (memory footprints stay fixed where
          the behaviour depends on them) *)
}

val sc : float -> int -> int
(** Scale an iteration count, keeping at least 1. *)

val ints : int -> (int -> int) -> data
val floats : int -> (int -> float) -> data
