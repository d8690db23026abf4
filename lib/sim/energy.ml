(** Abstract energy model (Wattch-style event counting).

    The paper notes (§2.2) that "models can also be built for other metrics
    such as power consumption or code size"; this module provides the power
    response. Energy is accumulated in abstract units from the event counts
    the simulator already collects:

    - per-instruction access/execute energy by functional-unit class
      (multipliers and FP units cost more than simple ALUs);
    - per-access energy for each cache level, with misses also paying the
      next level (the L2 and DRAM numbers dominate, which is what makes
      memory-bound programs power-hungry);
    - branch-predictor lookups and misprediction recovery;
    - static/leakage energy proportional to cycles and issue width.

    Absolute values are meaningless; only relative comparisons across
    configurations matter — exactly how the paper uses its performance
    response. *)

type coefficients = {
  fu_energy : float array;  (** indexed by {!Emc_isa.Isa.fu_index} *)
  l1_access : float;
  l2_access : float;
  mem_access : float;
  bpred_lookup : float;
  mispredict : float;
  leak_per_cycle_per_way : float;
}

let default =
  {
    (* IntAlu IntMul FpAlu FpMul LdSt Branch NoFu *)
    fu_energy = [| 1.0; 3.5; 2.0; 4.5; 1.5; 1.0; 0.0 |];
    l1_access = 1.2;
    l2_access = 12.0;
    mem_access = 60.0;
    bpred_lookup = 0.3;
    mispredict = 8.0;
    leak_per_cycle_per_way = 0.4;
  }

type breakdown = {
  total : float;
  dynamic_fu : float;
  memory : float;
  predictor : float;
  leakage : float;
}

(** Energy estimate for a finished (or sampled) simulation. [cycles] may be
    a SMARTS estimate; all other counts are exact, since functional warming
    updates the same structures as detailed simulation. *)
let estimate ?(coeffs = default) (ooo : Ooo.t) ~cycles : breakdown =
  (* The leakage term multiplies [cycles]: a NaN or infinite estimate would
     silently poison the whole energy response (and every dataset built from
     it). Like Stats.min/max on empty input, that is a caller bug — fail
     loudly at the source instead of producing a poisoned number. *)
  if not (Float.is_finite cycles) then
    invalid_arg (Printf.sprintf "Energy.estimate: non-finite cycle count (%h)" cycles);
  let func = Ooo.func ooo in
  let dynamic_fu =
    Array.fold_left ( +. ) 0.0
      (Array.mapi
         (fun i c -> coeffs.fu_energy.(i) *. float_of_int c)
         func.Func.class_counts)
  in
  let cache_energy (c : Memsys.Cache.t) access_cost =
    float_of_int (c.Memsys.Cache.hits + c.Memsys.Cache.misses) *. access_cost
  in
  let mem = ooo.Ooo.mem in
  let memory =
    cache_energy mem.Memsys.l1i coeffs.l1_access
    +. cache_energy mem.Memsys.l1d coeffs.l1_access
    +. cache_energy mem.Memsys.l2 coeffs.l2_access
    +. (float_of_int mem.Memsys.l2.Memsys.Cache.misses *. coeffs.mem_access)
  in
  let bp = ooo.Ooo.bpred in
  let predictor =
    (float_of_int bp.Bpred.lookups *. coeffs.bpred_lookup)
    +. (float_of_int bp.Bpred.mispredicts *. coeffs.mispredict)
  in
  let leakage =
    cycles *. coeffs.leak_per_cycle_per_way *. float_of_int ooo.Ooo.cfg.Config.issue_width
  in
  let total = dynamic_fu +. memory +. predictor +. leakage in
  { total; dynamic_fu; memory; predictor; leakage }
