(** The measurement substrate of the paper's Figure-1 loop: compile the
    workload at a design point's compiler settings (with the machine
    description matching its issue width, as the paper did by building one
    gcc per functional-unit configuration), simulate it on the design
    point's microarchitecture, and return the response. Binaries and results
    are memoized — designs repeat corner points and searches revisit
    configurations.

    Two scaling mechanisms sit on top of the memo tables:

    - a {b persistent result cache} (JSONL file, [?cache_file] or the
      EMC_CACHE environment variable): loaded at {!create}, appended on
      every fresh simulation, so a warm re-run of the same experiment
      performs zero simulations;
    - {b parallel fan-out} of measurement batches ({!respond_many},
      {!cycles_many}, {!cycles_coded_many}) across [scale.jobs] forked
      workers. Results are merged back into the parent memo in input order,
      and the simulator is deterministic, so datasets are bit-identical to
      a sequential run at any worker count. *)

(** All three responses of one simulated design point — what crosses the
    wire between a fleet coordinator and its workers. *)
type triple = { t_cycles : float; t_energy : float; t_code_size : float }

type t = {
  scale : Scale.t;
  binaries : (string, Emc_isa.Isa.program) Hashtbl.t;
  results : (string, float) Hashtbl.t;
  cache : out_channel option;  (** append side of the persistent cache *)
  journal : out_channel option;  (** append side of the per-run journal *)
  mutable simulations : int;  (** simulator runs actually executed *)
  mutable compiles : int;  (** distinct binaries built *)
  mutable binary_hits : int;  (** compile requests served from the memo *)
  mutable result_hits : int;  (** measurements served from the memo *)
  mutable preloaded : int;  (** results loaded from the persistent cache *)
  mutable remote : remote option;
      (** when set (see {!set_remote} and [Fleet.attach]), batch cache
          misses are resolved by this function instead of local simulation *)
}

(** A remote batch resolver: given the deduplicated cache misses of a
    {!respond_many} batch, return all three responses per point, in input
    order. Values must be exactly what local simulation would produce —
    the fleet coordinator guarantees this by running the same simulator on
    the workers and moving results as bit-exact hex floats. *)
and remote =
  Emc_workloads.Workload.t ->
  variant:Emc_workloads.Workload.variant ->
  (Emc_opt.Flags.t * Emc_sim.Config.t) array ->
  triple array

val create : ?cache_file:string -> ?journal_file:string -> Scale.t -> t
(** [create ?cache_file ?journal_file scale]: when [cache_file] (default:
    the EMC_CACHE environment variable) is set, existing cached results
    are loaded into the memo and every future simulation is appended to
    the file. [journal_file] behaves identically (load then append) and is
    the per-run resume journal: a re-run with the same journal preloads
    every completed measurement and performs zero re-simulations.
    Malformed lines — including a trailing line torn by a killed run — are
    skipped with a warning, and a torn tail is newline-terminated before
    anything is appended so no record is ever glued onto it. *)

val set_remote : t -> remote -> unit
(** Route future {!respond_many} cache misses through a remote resolver
    (installed by [Fleet.attach]). Counters still advance exactly as the
    local path's would; a remotely resolved point counts as a simulation. *)

val compile :
  t -> Emc_workloads.Workload.t -> Emc_opt.Flags.t -> issue_width:int -> Emc_isa.Isa.program
(** Memoized compilation of a workload at given flags/machine width. *)

val setup_func : (string * Emc_workloads.Workload.data) list -> Emc_sim.Func.t -> unit
(** Write a workload's input arrays into a functional simulator's memory. *)

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
    [response|workload|variant|flags|march] — used by the memo, the JSONL
    cache, the run journal, and the fleet's shared result store. *)

val triple_keys :
  Emc_workloads.Workload.t ->
  variant:Emc_workloads.Workload.variant ->
  Emc_opt.Flags.t * Emc_sim.Config.t ->
  string * string * string
(** The (cycles, energy, code-size) content addresses of one design point,
    in the fixed order they are persisted: the keys the fleet coordinator
    looks up in its store, one RPC per batch, and puts there. *)

val cache_line : string -> float -> string
(** One JSONL cache record [{"k":KEY,"v":"0x...p..."}] (bit-exact hex
    float) — the line format shared by [--cache] files, run journals, and
    the fleet store's persistence. *)

val cache_load : (string, float) Hashtbl.t -> string -> int * int
(** Load a JSONL cache/journal/store file into a table, returning
    [(loaded, skipped)]. Schema header lines are skipped silently;
    malformed lines — including a torn trailing line — count as skipped. *)

val cache_open_append : string -> out_channel
(** Open the append side of a JSONL cache-format file (creating it if
    missing), first newline-terminating any torn trailing line so appended
    records never glue onto it — used by the fleet store's persistence. *)

val respond :
  ?response:response ->
  t ->
  Emc_workloads.Workload.t ->
  variant:Emc_workloads.Workload.variant ->
  Emc_opt.Flags.t ->
  Emc_sim.Config.t ->
  float

val respond_many :
  ?response:response ->
  t ->
  Emc_workloads.Workload.t ->
  variant:Emc_workloads.Workload.variant ->
  (Emc_opt.Flags.t * Emc_sim.Config.t) array ->
  float array
(** Measure a batch of independent configurations, fanning cache misses out
    across [scale.jobs] forked workers (deduplicated first — designs repeat
    corner points). Equivalent to mapping {!respond} over the batch: same
    values bit-for-bit, same memo/cache contents, same counter totals; with
    [jobs = 1] it literally is that map. *)

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

(** {2 Cache maintenance ([emc cache])} *)

type cache_stats = {
  cs_lines : int;  (** non-blank lines in the file *)
  cs_entries : int;  (** well-formed key/value entries *)
  cs_unique : int;  (** distinct keys *)
  cs_duplicates : int;  (** entries repeating an earlier key *)
  cs_headers : int;  (** schema header lines (run journals) *)
  cs_malformed : int;  (** unparseable lines, the torn tail included *)
  cs_torn : bool;  (** the file ends mid-line (torn trailing write) *)
  cs_top_duplicates : (string * int) list;
      (** keys appearing more than once, by occurrence count descending
          (ties broken by key), capped at ten — the hit-key report *)
}

val cache_stats : string -> cache_stats
(** One read-only pass over a JSONL cache/journal/store file. A missing
    file reports as empty. *)

val cache_compact : string -> cache_stats
(** Rewrite the file in place (tmp + rename) keeping schema headers and
    the first occurrence of each key byte-verbatim, dropping duplicates,
    malformed lines, and any torn trailing write. Returns the
    pre-compaction stats. *)
