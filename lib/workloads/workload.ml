(** Workload interface: a MiniC program plus input generators.

    Each workload mimics the dominant behaviour of its SPEC CPU2000
    namesake (the seven programs of the paper's Table 3). Programs read
    their size parameters from the [params] global array and their data from
    input arrays that the harness fills before simulation; results are
    emitted with [out], giving a checksum trace that must be identical
    across every compiler/microarchitecture configuration (this is how the
    test suite validates the whole compiler+simulator stack). *)

type data = Emc_ir.Memlayout.data = DInt of int array | DFloat of float array

type variant = Train | Ref

let variant_name = function Train -> "train" | Ref -> "ref"

type t = {
  name : string;
  description : string;
  source : string;  (** MiniC source text *)
  arrays : scale:float -> variant:variant -> (string * data) list;
      (** contents for the input arrays, including [params] *)
}

(** Scale an iteration count, keeping at least 1. *)
let sc scale n = max 1 (int_of_float (float_of_int n *. scale))

let ints n f = DInt (Array.init n f)
let floats n f = DFloat (Array.init n f)
