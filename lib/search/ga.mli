(** Search over coded design-point grids (paper §6.3): a generational
    genetic algorithm plus random-search and hill-climbing baselines for the
    ablation benches. All searches {e minimize} the fitness (the model's
    predicted execution time). *)

type problem = { levels : float array array  (** admissible coded values per gene *) }

type params = {
  pop_size : int;
  generations : int;
  elite : int;  (** genomes copied unchanged each generation *)
  tournament : int;  (** tournament selection size *)
  crossover_p : float;  (** probability of uniform crossover (else cloning) *)
  mutation_p : float;  (** per-gene probability of mutating to a random level *)
  stagnation_limit : int;  (** early exit after this many stale generations *)
}

val default_params : params

val fitness_order : float -> float -> int
(** The minimizing order every search ranks by, NaN last (worst); the
    Pareto search orders each objective by it too. *)

val random_genome : Emc_util.Rng.t -> problem -> float array

val optimize :
  ?params:params ->
  Emc_util.Rng.t ->
  problem ->
  fitness:(float array -> float) ->
  float array * float
(** Returns the best genome found and its fitness. Deterministic for a given
    generator state. NaN fitness values are treated as worse than any
    number: they win no tournaments and claim no elite slots. *)

val random_search :
  Emc_util.Rng.t -> problem -> fitness:(float array -> float) -> evals:int
  -> float array * float
(** Pure random sampling with an evaluation budget; every fitness call
    counts into the [ga.evaluations] metric, like the GA's. *)

val hill_climb :
  Emc_util.Rng.t -> problem -> fitness:(float array -> float) -> restarts:int
  -> float array * float
(** First-improvement hill climbing over single-gene level moves, with
    random restarts; exact on unimodal separable landscapes. Fitness calls
    count into [ga.evaluations]. *)
