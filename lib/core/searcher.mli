(** Model-based search for platform-specific optimization settings (paper
    §6.3): freeze the 11 microarchitectural parameters at the target
    platform's configuration and search the 14 compiler parameters using
    the empirical model as a zero-cost fitness oracle.

    "When the program is installed on a specific platform, the empirical
    model could be parametrized with the platform's configuration and used
    to search for the optimal optimization flags and heuristic settings." *)

type result = {
  flags : Emc_opt.Flags.t;  (** the prescribed settings *)
  raw : float array;  (** the same, as raw compiler parameter values *)
  predicted_cycles : float;  (** the model's prediction at the best point *)
}

val coded_march : Emc_sim.Config.t -> float array
(** The frozen microarchitectural half of the coded design point. *)

val search :
  ?params:Emc_search.Ga.params ->
  rng:Emc_util.Rng.t ->
  model:Emc_regress.Model.t ->
  march:Emc_sim.Config.t ->
  unit ->
  result
(** The paper's genetic-algorithm search. *)

val search_random :
  rng:Emc_util.Rng.t ->
  model:Emc_regress.Model.t ->
  march:Emc_sim.Config.t ->
  evals:int ->
  unit ->
  result
(** Random-search baseline (ablation). *)

val search_hill_climb :
  rng:Emc_util.Rng.t ->
  model:Emc_regress.Model.t ->
  march:Emc_sim.Config.t ->
  restarts:int ->
  unit ->
  result
(** Hill-climbing baseline (ablation). *)

(** {2 Multi-objective search}

    The same compiler-parameter space, searched for the cycles × energy
    trade-off frontier with {!Emc_search.Pareto} instead of a single
    scalarized objective. *)

type pareto_point = {
  p_flags : Emc_opt.Flags.t;
  p_raw : float array;  (** raw compiler parameter values *)
  p_cycles : float;  (** predicted cycles at this point *)
  p_energy : float;  (** predicted energy (nJ) at this point *)
}

val search_pareto :
  ?params:Emc_search.Ga.params ->
  rng:Emc_util.Rng.t ->
  cycles_model:Emc_regress.Model.t ->
  energy_model:Emc_regress.Model.t ->
  march:Emc_sim.Config.t ->
  unit ->
  pareto_point list
(** Non-dominated front over (predicted cycles, predicted energy), both
    minimized, with the microarchitectural half frozen at [march]. Both
    predictions go through {!guarded}, so non-physical model outputs
    cannot dominate. Deterministic for a given [rng] state; the front
    comes back deduplicated and sorted by objectives (see
    {!Emc_search.Pareto.optimize}). *)

val pareto_to_json : seed:int -> evaluations:int -> pareto_point list -> Emc_obs.Json.t
(** The one JSON rendering of a front, shared by [emc pareto --json] and
    the daemon's [/pareto] endpoint so the two are byte-identical:
    [{front; size; evaluations; seed}] with each front point carrying
    raw flag values, the rendered flag string and both predictions. *)
