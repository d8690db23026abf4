(** The measurement substrate of the paper's Figure-1 loop: compile the
    workload at a design point's compiler settings (with the machine
    description matching its issue width, as the paper did by building one
    gcc per functional-unit configuration), simulate it on the design
    point's microarchitecture, and return the response. Binaries and results
    are memoized — designs repeat corner points and searches revisit
    configurations.

    Every miss takes one path, {!respond_many}: the batch is deduplicated,
    its misses are resolved in process, across [scale.jobs] forked
    workers or through an attached fleet ({!set_remote}), and each
    resolved point is memoized, persisted and counted in one place. The
    simulator is deterministic, so values, memo and counters are the same
    whichever resolver ran.

    A {b result file} ([?cache_file]: [--cache] or a [--run-id] journal,
    read and written through {!Result_file}) backs the memo: loaded at
    {!create}, appended on every fresh simulation, so a warm re-run of the
    same experiment performs zero simulations. Its keys are signed with
    the protocol's {!Scale.signature}, so a file never answers for another
    protocol. *)

(** All three responses of one simulated design point — what crosses the
    wire between a fleet coordinator and its workers. *)
type triple = { t_cycles : float; t_energy : float; t_code_size : float }

type t = {
  scale : Scale.t;
  binaries : (string, Emc_isa.Isa.program Lazy.t) Hashtbl.t;
      (** lazy builds: requesting a binary counts it in [compiles] or
          [binary_hits]; only forcing it compiles (see {!compile}) *)
  inputs :
    (string * Emc_workloads.Workload.variant, (string * Emc_workloads.Workload.data) list) Hashtbl.t;
      (** each workload variant's inputs, generated once at [scale] *)
  results : (string, float) Hashtbl.t;
  cache : out_channel option;  (** append side of the result file *)
  mutable simulations : int;  (** simulator runs actually executed *)
  mutable compiles : int;  (** distinct binaries requested *)
  mutable binary_hits : int;  (** compile requests served from the memo *)
  mutable result_hits : int;  (** measurements served from the memo *)
  mutable preloaded : int;  (** results loaded from the result file *)
  mutable remote : remote option;
      (** when set (see {!set_remote} and [Fleet.attach]), cache misses are
          resolved by this function instead of local simulation *)
  store : Emc_sim.Ooo.store;
      (** the one machine store of this measure: every SMARTS attempt
          restores its memory and resets its cache arrays in place instead
          of allocating its own (see {!Emc_sim.Ooo.store}) *)
}

(** A remote resolver: given the deduplicated cache misses of a
    {!respond_many} batch, return all three responses per point, in input
    order. Values must be exactly what local simulation would produce —
    the fleet coordinator guarantees this by running the same simulator on
    the workers and moving results as bit-exact hex floats. *)
and remote =
  Emc_workloads.Workload.t ->
  variant:Emc_workloads.Workload.variant ->
  (Emc_opt.Flags.t * Emc_sim.Config.t) array ->
  triple array

val create : ?cache_file:string -> Scale.t -> t
(** [create ?cache_file scale]: when [cache_file] is given, the results it
    holds under [scale]'s {!Scale.signature} are loaded into the memo and
    every future simulation is appended to it as [SIG#KEY] entries — a
    [--cache] file or a [--run-id] journal alike, so a re-run against it
    performs zero simulations. Lines under another signature, unsigned
    lines (older caches, store files) and malformed lines — including a
    trailing line torn by a killed run — are skipped with one warning
    counting them, and a torn tail is newline-terminated before anything
    is appended so no record is ever glued onto it. *)

val set_remote : t -> remote -> unit
(** Route future cache misses through a remote resolver (installed by
    [Fleet.attach]). Counters still advance exactly as the local path's
    would: each miss's binary is requested without being built, and a
    remotely resolved point counts as a simulation. *)

val compile :
  t -> Emc_workloads.Workload.t -> Emc_opt.Flags.t -> issue_width:int -> Emc_isa.Isa.program
(** Memoized compilation of a workload at given flags/machine width: the
    request is counted in [compiles] or [binary_hits], and the memoized
    lazy build is forced. *)

(** Which system response to model: the paper's evaluation uses execution
    time; §2.2 notes power and code size fit the same machinery. One
    simulation produces all three (they are memoized together). *)
type response = Cycles | Energy | CodeSize

val response_name : response -> string

val result_key :
  response ->
  Emc_workloads.Workload.t ->
  variant:Emc_workloads.Workload.variant ->
  Emc_opt.Flags.t ->
  Emc_sim.Config.t ->
  string
(** The content address of one measurement —
    [response|workload|variant|flags|march] — used by the memo and the
    fleet's shared result store; result files prefix it with the
    protocol's signature. *)

val triple_keys :
  Emc_workloads.Workload.t ->
  variant:Emc_workloads.Workload.variant ->
  Emc_opt.Flags.t * Emc_sim.Config.t ->
  string * string * string
(** The (cycles, energy, code-size) content addresses of one design point,
    in the fixed order they are persisted: the keys the fleet coordinator
    looks up in its store, one RPC per batch, and puts there. *)

val respond :
  ?response:response ->
  t ->
  Emc_workloads.Workload.t ->
  variant:Emc_workloads.Workload.variant ->
  Emc_opt.Flags.t ->
  Emc_sim.Config.t ->
  float
(** {!respond_many} of one point. *)

val respond_many :
  ?response:response ->
  t ->
  Emc_workloads.Workload.t ->
  variant:Emc_workloads.Workload.variant ->
  (Emc_opt.Flags.t * Emc_sim.Config.t) array ->
  float array
(** Measure a batch of independent configurations — the one miss path.
    The misses are deduplicated in first-occurrence order (designs repeat
    corner points) and resolved in process when [scale.jobs <= 1] or there
    is one, across [scale.jobs] forked workers otherwise, or through the
    fleet when one is attached; each is then memoized, persisted and
    counted in work order. Whichever resolver ran, the values are
    bit-identical and the memo, result file and counters are the same. *)

val cycles :
  t ->
  Emc_workloads.Workload.t ->
  variant:Emc_workloads.Workload.variant ->
  Emc_opt.Flags.t ->
  Emc_sim.Config.t ->
  float
(** [respond ~response:Cycles]. *)

val cycles_many :
  t ->
  Emc_workloads.Workload.t ->
  variant:Emc_workloads.Workload.variant ->
  (Emc_opt.Flags.t * Emc_sim.Config.t) array ->
  float array
(** [respond_many ~response:Cycles]. *)

val cycles_coded :
  t -> Emc_workloads.Workload.t -> variant:Emc_workloads.Workload.variant -> float array -> float
(** Measure at a coded 25-dimensional design point (decoded and snapped to
    the parameter grid first). *)

val respond_coded :
  ?response:response ->
  t ->
  Emc_workloads.Workload.t ->
  variant:Emc_workloads.Workload.variant ->
  float array ->
  float

val respond_coded_many :
  ?response:response ->
  t ->
  Emc_workloads.Workload.t ->
  variant:Emc_workloads.Workload.variant ->
  float array array ->
  float array
(** {!respond_many} over coded design points. *)

val cycles_coded_many :
  t ->
  Emc_workloads.Workload.t ->
  variant:Emc_workloads.Workload.variant ->
  float array array ->
  float array
(** {!cycles_many} over coded design points — the fan-out entry used by
    [Modeling.build_dataset]. *)
