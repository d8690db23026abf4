(** Experiment protocol scales.

    The paper's full protocol (400-point D-optimal training designs, 100-point
    test designs, full SPEC inputs) takes hours of simulation even with
    SMARTS. The [quick] protocol exercises exactly the same code paths with
    smaller designs and scaled-down workload inputs so that the complete
    bench harness regenerates every table and figure in minutes; [full]
    matches the paper's design sizes. Select via the EMC_SCALE environment
    variable ("quick" (default) | "full" | "paper"). *)

type t = {
  name : string;
  train_n : int;  (** training design size (paper: 400) *)
  test_n : int;  (** independent test design size (paper: 100) *)
  workload_scale : float;  (** input size multiplier *)
  smarts : Emc_sim.Smarts.params option;  (** None = fully detailed simulation *)
  fig5_sizes : int list;  (** training sizes for the learning curves *)
  fig5_reps : int;  (** repetitions per size for error variance *)
  ga : Emc_search.Ga.params;
  doe_sweeps : int;
  doe_cand_factor : int;
  jobs : int;  (** measurement fan-out workers; 1 = sequential *)
}

(* Same seed must give the same datasets at any [jobs], so the presets
   default to sequential and the worker count comes only from the
   environment (of_env) or explicit CLI flags. *)
let jobs_of_env () = Emc_par.Par.default_jobs ()

let quick =
  {
    name = "quick";
    train_n = 110;
    test_n = 36;
    workload_scale = 0.25;
    smarts =
      Some { Emc_sim.Smarts.unit_size = 1000; warmup = 1000; interval = 8; target_ci = 0.05;
             max_refinements = 1 };
    fig5_sizes = [ 25; 50; 75; 110 ];
    fig5_reps = 3;
    ga = { Emc_search.Ga.default_params with pop_size = 50; generations = 40 };
    doe_sweeps = 2;
    doe_cand_factor = 5;
    jobs = 1;
  }

let full =
  {
    name = "full";
    train_n = 400;
    test_n = 100;
    workload_scale = 1.0;
    smarts =
      Some { Emc_sim.Smarts.unit_size = 1000; warmup = 2000; interval = 10; target_ci = 0.01;
             max_refinements = 2 };
    fig5_sizes = [ 50; 100; 150; 200; 300; 400 ];
    fig5_reps = 5;
    ga = Emc_search.Ga.default_params;
    doe_sweeps = 3;
    doe_cand_factor = 5;
    jobs = 1;
  }

(** Intermediate validation scale: half the paper's design sizes on
    half-size inputs — a ~half-hour run that narrows the gap between the
    quick protocol and the paper's. *)
let medium =
  {
    name = "medium";
    train_n = 220;
    test_n = 60;
    workload_scale = 0.5;
    smarts =
      Some { Emc_sim.Smarts.unit_size = 1000; warmup = 2000; interval = 10; target_ci = 0.03;
             max_refinements = 1 };
    fig5_sizes = [ 50; 100; 150; 220 ];
    fig5_reps = 3;
    ga = Emc_search.Ga.default_params;
    doe_sweeps = 2;
    doe_cand_factor = 5;
    jobs = 1;
  }

(** Smoke-test scale: tiny designs, heavily scaled-down inputs. Models are
    too starved to be accurate here — it exists to exercise every code path
    in seconds (used by CI-style runs and debugging). *)
let tiny =
  {
    quick with
    name = "tiny";
    train_n = 36;
    test_n = 12;
    workload_scale = 0.08;
    fig5_sizes = [ 12; 24; 36 ];
    fig5_reps = 2;
    ga = { quick.ga with pop_size = 24; generations = 12 };
  }

(* Bump whenever the simulator's timing model changes, i.e. whenever the
   golden timings of test/test_sim_golden.ml are regenerated: result files
   written under the older model then stop loading instead of returning
   the old model's numbers. *)
let sim_version = 1

let signature t =
  Printf.sprintf "sim%d ws=%h smarts=%s" sim_version t.workload_scale
    (match t.smarts with
    | None -> "full"
    | Some p ->
        Printf.sprintf "%d/%d/%d/%h/%d" p.Emc_sim.Smarts.unit_size p.warmup p.interval
          p.target_ci p.max_refinements)

let of_env () =
  let base =
    match Sys.getenv_opt "EMC_SCALE" with
    | Some ("full" | "paper") -> full
    | Some "medium" -> medium
    | Some "tiny" -> tiny
    | Some "quick" | None -> quick
    | Some other ->
        Emc_obs.Log.warn ~src:"scale"
          ~fields:[ ("value", Emc_obs.Json.Str other) ]
          "EMC_SCALE=%s not recognized; using quick" other;
        quick
  in
  { base with jobs = jobs_of_env () }
