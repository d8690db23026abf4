(** Model-based search for platform-specific optimization settings (paper
    §6.3): freeze the 11 microarchitectural parameters at the target
    platform's configuration, then run a genetic algorithm over the 14
    compiler parameters using the empirical model as a zero-cost fitness
    oracle. Returns the prescribed flags plus the model's predicted
    cycles. *)

type result = {
  flags : Emc_opt.Flags.t;
  raw : float array;  (** prescribed raw compiler parameter values *)
  predicted_cycles : float;
}

let coded_march (march : Emc_sim.Config.t) =
  let raw = Array.append (Array.make Params.n_compiler 0.0) (Params.of_march march) in
  let coded = Params.code Params.all_specs raw in
  Array.sub coded Params.n_compiler Params.n_march

(* Model predictions are unconstrained regressions: far from the training
   data they can go non-physical (<= 0 cycles). The search must not reward
   such points — treat them as maximally unfit rather than optimal. *)
let guarded predict x =
  let p = predict x in
  if Float.is_nan p || p <= 0.0 then Float.max_float else p

let problem = { Emc_search.Ga.levels = Params.space_compiler.Emc_doe.Doe.levels }

(* Run [search] over the compiler parameters, with the guarded model at
   [march] as its fitness. *)
let prescribe ~(model : Emc_regress.Model.t) ~march search =
  let march_coded = coded_march march in
  let fitness genes = guarded model.Emc_regress.Model.predict (Array.append genes march_coded) in
  let best, fit = search problem ~fitness in
  let raw = Params.decode Params.compiler_specs best in
  { flags = Params.to_flags raw; raw; predicted_cycles = fit }

let search ?(params = Emc_search.Ga.default_params) ~rng ~model ~march () =
  prescribe ~model ~march (Emc_search.Ga.optimize ~params rng)

(** Ablation baselines over the same search space. *)
let search_random ~rng ~model ~march ~evals () =
  prescribe ~model ~march (fun p ~fitness -> Emc_search.Ga.random_search rng p ~fitness ~evals)

let search_hill_climb ~rng ~model ~march ~restarts () =
  prescribe ~model ~march (fun p ~fitness -> Emc_search.Ga.hill_climb rng p ~fitness ~restarts)

(* ---------------- multi-objective (cycles × energy) ---------------- *)

type pareto_point = {
  p_flags : Emc_opt.Flags.t;
  p_raw : float array;
  p_cycles : float;
  p_energy : float;
}

let search_pareto ?(params = Emc_search.Ga.default_params) ~rng
    ~(cycles_model : Emc_regress.Model.t) ~(energy_model : Emc_regress.Model.t)
    ~(march : Emc_sim.Config.t) () : pareto_point list =
  let march_coded = coded_march march in
  let fitness genes =
    let x = Array.append genes march_coded in
    [| guarded cycles_model.Emc_regress.Model.predict x;
       guarded energy_model.Emc_regress.Model.predict x |]
  in
  let front = Emc_search.Pareto.optimize ~params rng problem ~fitness in
  Array.to_list front
  |> List.map (fun (p : Emc_search.Pareto.point) ->
         let raw = Params.decode Params.compiler_specs p.Emc_search.Pareto.genome in
         { p_flags = Params.to_flags raw; p_raw = raw;
           p_cycles = p.Emc_search.Pareto.objectives.(0);
           p_energy = p.Emc_search.Pareto.objectives.(1) })

(* One JSON rendering shared by [emc pareto --json] and the daemon's
   /pareto endpoint: byte-identical output is the acceptance contract for
   served-vs-in-process runs. *)
let pareto_to_json ~seed ~evaluations (front : pareto_point list) : Emc_obs.Json.t =
  let module Json = Emc_obs.Json in
  let names = Array.to_list (Array.map (fun s -> s.Params.name) Params.compiler_specs) in
  let point p =
    Json.Obj
      [ ("flags",
         Json.Obj (List.map2 (fun n v -> (n, Json.Float v)) names (Array.to_list p.p_raw)));
        ("flags_string", Json.Str (Emc_opt.Flags.to_string p.p_flags));
        ("predicted_cycles", Json.Float p.p_cycles);
        ("predicted_energy", Json.Float p.p_energy) ]
  in
  Json.Obj
    [ ("front", Json.List (List.map point front));
      ("size", Json.Int (List.length front));
      ("evaluations", Json.Int evaluations);
      ("seed", Json.Int seed) ]
