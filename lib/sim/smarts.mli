(** SMARTS-style statistical sampling (Wunderlich et al., ISCA 2003 — the
    paper's simulation-time reduction method, chosen because design points
    correspond to different binaries, which rules out IPC comparisons and
    SimPoint).

    The dynamic instruction stream is split into fixed-size units; every
    [interval]-th unit is measured in detail after a detailed warm-up
    window; the rest run in functional-warming mode (architectural state,
    caches and branch predictor advance with no timing). Whole-program
    cycles are estimated as mean unit CPI × instruction count with a
    confidence interval from the between-unit variance; the interval is
    halved and the run repeated while the CI misses the target, mirroring
    the paper's "tune the sampling parameters and repeat". *)

type params = {
  unit_size : int;  (** instructions per measured unit (paper: 1000) *)
  warmup : int;  (** detailed-warming instructions before each unit *)
  interval : int;  (** one in [interval] units is measured; 1 = full detail *)
  target_ci : float;
      (** desired relative CI at 3 sigma. The paper tunes to 0.01 ("below
          1% at 99.7% confidence") and [Emc_core.Scale.full] matches that;
          {!default_params} accepts 0.02 so ad-hoc runs stay fast. The CI
          each run actually achieves is exported through the telemetry
          layer ([smarts.last_ci_rel] gauge, [smarts.ci_rel] histogram). *)
  max_refinements : int;  (** interval halvings allowed *)
}

val default_params : params
(** [target_ci = 0.02] — deliberately looser than the paper's 1% (see
    {!type:params}); use [Emc_core.Scale.full]'s params to match the
    paper. *)

type result = {
  cycles : float;  (** estimated whole-program cycles *)
  instrs : int;  (** exact dynamic instruction count *)
  cpi : float;
  ci_rel : float;  (** relative half-width of the 3σ CI on CPI *)
  sampled_units : int;
  detailed : bool;  (** [true] when no sampling was used *)
  energy : float;  (** abstract units, see {!Energy} *)
  static_instrs : int;  (** the code-size response *)
}

val run_full :
  ?store:Ooo.store ->
  Config.t ->
  Emc_isa.Isa.program ->
  inputs:(string * Emc_ir.Memlayout.data) list ->
  result
(** Fully detailed simulation with [inputs] loaded (see
    {!Emc_ir.Memlayout.load}). With [store], the machine is built on it as
    in {!Ooo.create}; the result is the same bits as on a fresh machine. *)

val run_sampled :
  ?params:params ->
  ?store:Ooo.store ->
  Config.t ->
  Emc_isa.Isa.program ->
  inputs:(string * Emc_ir.Memlayout.data) list ->
  result
(** Sampled simulation, halving the interval while the CI misses
    [target_ci]. Every attempt, and the fully detailed fallback of a
    program too short for the sampling grid, is built on [store] when it
    is given: the attempts run one after another, so the store backs one
    live machine at a time. Each attempt has its own [smarts.attempt]
    span, and each one thrown away, by a refinement or by the fallback,
    is timed in the [smarts.discarded_seconds] histogram. *)
