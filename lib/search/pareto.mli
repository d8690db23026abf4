(** NSGA-II-style multi-objective search (Deb et al. 2002) over the same
    coded design-point grids as {!Ga}.

    All objectives are {e minimized}. A NaN objective value sorts worse
    than any number — the {!Ga} fitness convention — so design points with
    broken predictions can neither dominate real points nor survive
    environmental selection when finite alternatives exist.

    Determinism contract: for a fixed generator state, problem and
    parameters, {!optimize} returns the same front in the same order,
    independent of evaluation-order accidents — fronts and truncation
    break every tie by population index, and the returned front is
    deduplicated and sorted by objective values. *)

type point = { genome : float array; objectives : float array }

val dominates : float array -> float array -> bool
(** [dominates a b]: [a] is no worse than [b] on every objective (under
    {!Ga.fitness_order}) and strictly better on at least one. *)

val is_front : float array array -> bool
(** No member dominates another — the check used by tests and the CLI to
    verify a returned front. *)

val non_dominated_sort : float array array -> int array list
(** Fronts of indices into the argument, best (non-dominated) first;
    indices within a front are ascending. Every index appears in exactly
    one front; empty input gives []. Raises [Invalid_argument] when the
    points differ in their number of objectives. *)

val crowding_distance : float array array -> int array -> float array
(** Crowding distance of each member of the given front (parallel to it):
    boundary points along any objective get [infinity]; interior points
    the sum over objectives of the normalized gap between neighbours.
    Objectives with a zero or non-finite range contribute nothing. *)

val optimize :
  ?params:Ga.params ->
  Emc_util.Rng.t ->
  Ga.problem ->
  fitness:(float array -> float array) ->
  point array
(** Evolve [params.pop_size] genomes for [params.generations] generations
    (binary crowded-comparison tournaments of size [params.tournament],
    uniform crossover with probability [crossover_p], per-gene mutation
    with probability [mutation_p], elitist parent+offspring truncation).
    [params.elite] and [params.stagnation_limit] are ignored: the
    environmental selection is already elitist, and a fixed generation
    count keeps runs reproducible across parameter sets. Returns the
    final population's first front, deduplicated by genome and sorted by
    objectives. [fitness] must return one array per genome with a
    consistent length (the number of objectives).

    Counters: [pareto.generations], [pareto.evaluations]. *)
