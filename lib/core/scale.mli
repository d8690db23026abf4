(** Experiment protocol scales. The full paper protocol (400-point training
    designs, 100-point test designs, full-size inputs) costs hours of
    simulation; [quick] exercises identical code paths in minutes and is the
    default; [tiny] is a seconds-scale smoke test whose models are too
    starved to be accurate. Selected via EMC_SCALE=tiny|quick|medium|full. *)

type t = {
  name : string;
  train_n : int;  (** training design size (paper: 400) *)
  test_n : int;  (** independent test design size (paper: 100) *)
  workload_scale : float;  (** input size multiplier *)
  smarts : Emc_sim.Smarts.params option;  (** [None] = fully detailed simulation *)
  fig5_sizes : int list;  (** training sizes for the Figure-5 learning curves *)
  fig5_reps : int;  (** repetitions per size for the error variance *)
  ga : Emc_search.Ga.params;
  doe_sweeps : int;  (** Fedorov exchange passes *)
  doe_cand_factor : int;  (** LHS candidates per design point *)
  jobs : int;  (** measurement fan-out workers; 1 = sequential (presets
                   always say 1 — parallelism is opt-in via EMC_JOBS or
                   [--jobs], and never changes the measured datasets) *)
}

val quick : t
val full : t
val medium : t
val tiny : t

val signature : t -> string
(** The measurement protocol a result was produced under: [workload_scale],
    the five SMARTS parameters (floats as [%h]) and the simulator model's
    version, bumped whenever its timings change. Two
    scales with equal signatures measure every design point identically;
    persisted results carry it so a file never answers for another
    protocol. *)

val of_env : unit -> t
(** Reads EMC_SCALE; defaults to {!quick}, warns on unknown values. The
    [jobs] field is filled in from EMC_JOBS ({!jobs_of_env}). *)

val jobs_of_env : unit -> int
(** EMC_JOBS when it is a positive integer; 1 otherwise. *)
