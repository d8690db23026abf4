open Emc_util

(** Genetic algorithm over coded design points (paper §6.3).

    Genomes are vectors of per-gene levels; fitness is {e minimized} (the
    model's predicted execution time). Tournament selection, uniform
    crossover, per-gene mutation to a random admissible level, elitism.
    The paper's GA "terminates when the optimal design point is reached or
    the number of generations exceeds a threshold" — we run a fixed number
    of generations with early exit on prolonged stagnation. *)

type problem = { levels : float array array  (** admissible coded values per gene *) }

type params = {
  pop_size : int;
  generations : int;
  elite : int;
  tournament : int;
  crossover_p : float;
  mutation_p : float;
  stagnation_limit : int;
}

let default_params =
  { pop_size = 60; generations = 60; elite = 2; tournament = 3; crossover_p = 0.9;
    mutation_p = 0.08; stagnation_limit = 15 }

let random_genome rng (p : problem) = Array.map (fun ls -> Rng.choice rng ls) p.levels

let m_generations = Emc_obs.Metrics.counter "ga.generations"
let m_evaluations = Emc_obs.Metrics.counter "ga.evaluations"
let h_seconds = Emc_obs.Metrics.histogram "ga.optimize_seconds"

(* Minimizing order over fitness values, NaN sorted last. Both polymorphic
   [compare] and [Float.compare] place NaN below every number, which would
   hand the elite slots (and tournament wins) to broken genomes whenever a
   model predicts NaN. *)
let fitness_order a b =
  match (Float.is_nan a, Float.is_nan b) with
  | true, true -> 0
  | true, false -> 1
  | false, true -> -1
  | false, false -> Float.compare a b

(* Per-generation best/mean fitness trace; the mean is only computed when a
   consumer (debug log or trace file) is actually on. *)
let trace_generation gen best fit =
  if Emc_obs.Log.enabled Emc_obs.Log.Debug || Emc_obs.Trace.enabled () then begin
    let mean = Stats.mean fit in
    Emc_obs.Log.debug ~src:"ga" "gen %d: best=%.6g mean=%.6g" gen best mean;
    Emc_obs.Trace.counter "ga.fitness" [ ("best", best); ("mean", mean) ]
  end

let breed params rng (p : problem) pop ~better count =
  let tournament () =
    let w = ref (Rng.int rng (Array.length pop)) in
    for _ = 2 to params.tournament do
      let c = Rng.int rng (Array.length pop) in
      if better c !w then w := c
    done;
    pop.(!w)
  in
  Array.init count (fun _ ->
      let a = tournament () and b = tournament () in
      let child =
        if Rng.float rng 1.0 < params.crossover_p then
          Array.init (Array.length p.levels) (fun g -> if Rng.bool rng then a.(g) else b.(g))
        else Array.copy a
      in
      Array.iteri
        (fun g _ ->
          if Rng.float rng 1.0 < params.mutation_p then child.(g) <- Rng.choice rng p.levels.(g))
        child;
      child)

let optimize ?(params = default_params) rng (p : problem) ~fitness =
  if params.pop_size < 1 then
    invalid_arg (Printf.sprintf "Ga.optimize: pop_size must be at least 1, not %d" params.pop_size);
  Emc_obs.Trace.with_span ~cat:"search"
    ~args:(fun () ->
      [ ("pop_size", Emc_obs.Json.Int params.pop_size);
        ("generations", Emc_obs.Json.Int params.generations) ])
    "ga.optimize"
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let pop = Array.init params.pop_size (fun _ -> random_genome rng p) in
  let fit = Array.map fitness pop in
  Emc_obs.Metrics.add m_evaluations params.pop_size;
  let order () =
    let idx = Array.init params.pop_size Fun.id in
    Array.sort (fun a b -> fitness_order fit.(a) fit.(b)) idx;
    idx
  in
  let best = ref (Array.copy pop.(0)) and best_f = ref fit.(0) in
  (* a population smaller than the elite keeps all of itself *)
  let elite = min params.elite params.pop_size in
  let update_best () =
    Array.iteri
      (fun i f ->
        if fitness_order f !best_f < 0 then begin
          best_f := f;
          best := Array.copy pop.(i)
        end)
      fit
  in
  update_best ();
  let stagnant = ref 0 in
  let gen = ref 0 in
  while !gen < params.generations && !stagnant < params.stagnation_limit do
    incr gen;
    let prev_best = !best_f in
    let idx = order () in
    let elites = Array.init elite (fun e -> Array.copy pop.(idx.(e))) in
    let children =
      breed params rng p pop (params.pop_size - elite)
        ~better:(fun c w -> fitness_order fit.(c) fit.(w) < 0)
    in
    Array.blit (Array.append elites children) 0 pop 0 params.pop_size;
    Array.iteri (fun i g -> fit.(i) <- fitness g) pop;
    update_best ();
    Emc_obs.Metrics.incr m_generations;
    Emc_obs.Metrics.add m_evaluations params.pop_size;
    trace_generation !gen !best_f fit;
    if !best_f < prev_best -. 1e-12 then stagnant := 0 else incr stagnant
  done;
  (* the whole search, once per call: the layer time `--metrics` shows *)
  Emc_obs.Metrics.observe h_seconds (Unix.gettimeofday () -. t0);
  (!best, !best_f)

(** Pure random search baseline (same budget accounting as the GA: every
    fitness call counts into [ga.evaluations]). *)
let random_search rng (p : problem) ~fitness ~evals =
  let fitness g =
    Emc_obs.Metrics.incr m_evaluations;
    fitness g
  in
  let best = ref (random_genome rng p) in
  let best_f = ref (fitness !best) in
  for _ = 2 to evals do
    let g = random_genome rng p in
    let f = fitness g in
    if fitness_order f !best_f < 0 then begin
      best_f := f;
      best := g
    end
  done;
  (!best, !best_f)

(** First-improvement hill climbing over per-gene level moves (every fitness
    call counts into [ga.evaluations], as for the GA). *)
let hill_climb rng (p : problem) ~fitness ~restarts =
  let fitness g =
    Emc_obs.Metrics.incr m_evaluations;
    fitness g
  in
  let k = Array.length p.levels in
  (* drawn first so that the restarts keep their draws; returned, with
     fitness infinity, only when there is no restart *)
  let best = ref (random_genome rng p) and best_f = ref infinity in
  for r = 1 to restarts do
    let cur = ref (random_genome rng p) in
    let cur_f = ref (fitness !cur) in
    let improved = ref true in
    while !improved do
      improved := false;
      for g = 0 to k - 1 do
        Array.iter
          (fun lv ->
            if lv <> !cur.(g) then begin
              let cand = Array.copy !cur in
              cand.(g) <- lv;
              let f = fitness cand in
              if fitness_order f !cur_f < 0 then begin
                cur := cand;
                cur_f := f;
                improved := true
              end
            end)
          p.levels.(g)
      done
    done;
    if r = 1 || fitness_order !cur_f !best_f < 0 then begin
      best := !cur;
      best_f := !cur_f
    end
  done;
  (!best, !best_f)
