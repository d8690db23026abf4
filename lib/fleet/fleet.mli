(** Distributed measurement over the serve substrate.

    [lib/par] fans a {!Emc_core.Measure.respond_many} batch out over forked
    workers on one box; this module fans it out over {e machines}. Three
    pieces, all speaking the dependency-free HTTP/1.1 of [lib/serve]:

    - a {b worker daemon} ([emc fleet-worker], {!run_worker}) exposing
      [POST /measure] — a batch of design points in, all three responses
      per point out — plus [/healthz] and [/metrics]; with [--register]
      it also heartbeats into a store's membership table and can be
      drained gracefully ({!drain}, [emc fleet-worker --drain]);
    - a {b coordinator} ({!attach}) installed behind
      [Measure.respond_many] via [--fleet HOST:PORT,...] / [EMC_FLEET]:
      it chunks each batch, keeps up to [depth] chunks pipelined per
      worker over keep-alive connections, retries chunks whose worker
      crashed, and work-steals stragglers by re-dispatching their chunk
      to an idle worker — first completion wins. A [@ADDR] source makes
      membership {e elastic}: the coordinator polls the store's
      [/members] table, so workers joining mid-run pick up pending
      chunks and lost workers age out and their chunks requeue;
    - a {b content-addressed result store} ([emc fleet-store],
      {!run_store}): keyed by [Measure.result_key], persisted in the
      exact JSONL [--cache] line format. Its one client is the
      coordinator (the first [@ADDR] source): it looks each batch up
      before dispatch and puts each chunk's results as it completes, so
      runs share results and a killed run resumes with zero
      re-simulation. It doubles as the membership registry.

    {b The bit-identity contract.} Results merged in first-occurrence
    order must be bit-identical to [--jobs 1] on one box — same values,
    same [measure.*] counters, same cache/journal bytes — regardless of
    worker count, chunk size, retries, steals, or arrival order. The
    protocol guarantees it by construction: design points travel as the
    raw 25-vector of [Params.raw_of] and every measured value travels as
    an OCaml [%h] hex-float literal, both lossless; chunks map onto fixed
    slices of the deduplicated work array, so results land at their input
    index no matter which worker produced them or in what order; and a
    duplicate (stolen) completion is identical to the first because the
    simulator is deterministic, so whichever arrives first is kept and
    the other discarded. Coordinator-side scheduling telemetry lands in
    separate [fleet.*] counters (dispatched, points_dispatched, retried,
    worker_failures, steals, store_prefilled, store_puts) so [measure.*]
    stays comparable.

    Resumability: [--run-id ID] journals every measurement to
    [EMC_RUN_DIR/ID.jsonl] (header line + [--cache]-format records);
    re-running with the same id preloads the journal and re-simulates
    nothing ([emc fleet-resume] inspects or re-executes a journal). *)

exception Fleet_error of string
(** A batch that cannot complete: every worker dead with work pending, a
    chunk over its retry budget, or a worker rejecting the (deterministic)
    request outright. *)

(** {1 Addresses} *)

type addr = Emc_serve.Http.addr =
  | Tcp of string * int
  | Unix_sock of string
      (** {!Emc_serve.Http.addr}, re-exported so fleet sources can be
          written [Fleet.Unix_sock path]; parse and print them with
          [Http.parse_addr] and [Http.addr_to_string]. *)

(** One coordinator work source: a fixed worker address, or a store whose
    membership table is polled for workers ([@ADDR] on the command
    line). *)
type source = Worker of addr | Members of addr

val parse_source : string -> (source, string) result
(** [Http.parse_addr], with a [@] prefix selecting {!Members}. *)

val parse_fleet : string -> (source list, string) result
(** Comma-separated {!parse_source} list — the [--fleet]/[EMC_FLEET]
    format, e.g. ["host:9001,host:9002"] or ["@/run/emc-store.sock"]. *)

(** {1 Coordinator} *)

type options = {
  chunk : int;  (** design points per dispatch; 0 = auto from batch size *)
  depth : int;
      (** outstanding chunks pipelined per worker connection; 1 = the
          classic request/response lockstep. The worker's server answers
          a connection's requests in order and echoes each one's
          [X-Request-Id], which the coordinator sets to the chunk id, so
          a desync is detected, not silently merged *)
  connect_timeout : float;  (** seconds to establish a worker connection *)
  read_timeout : float;
      (** hard per-dispatch deadline before the worker is failed; clocks
          tick only at the head of a worker's pipeline (a queued dispatch
          is not running yet) *)
  steal_after : float;
      (** with the queue drained and an idle worker available, a chunk
          running longer than this is re-dispatched to the idle worker *)
  max_attempts : int;  (** dispatch budget per chunk before {!Fleet_error} *)
  poll_interval : float;  (** seconds between [/members] polls (elastic sources) *)
  store_timeout : float;  (** RPC timeout for store lookups, puts and membership polls *)
}

val default_options : options
(** chunk auto, depth 1, 5 s connect, 600 s read, 30 s steal, 3 attempts,
    1 s poll, 10 s store. *)

val chunk_plan : chunk:int -> nworkers:int -> n:int -> (int * int) list
(** The fixed-slice chunking of [n] work items as [(start, length)]
    pairs: every index covered exactly once, no empty chunks, for every
    degenerate shape ([n] below the worker count, [n = 1], a chunk size
    above [n]). [chunk = 0] sizes automatically (~4 chunks per worker,
    capped at 32 points); negative raises {!Fleet_error}. Exposed for
    tests — the scheduler calls exactly this. *)

val next_wake : now:float -> read_timeout:float -> steal_after:float ->
  ?poll_at:float -> float list -> float
(** How long the dispatch loop may sleep: until the nearest head-of-line
    deadline or steal timer among the given dispatch start times, or the
    next membership poll — clamped to [[0.001, 60]] seconds, with a short
    wake when an event is already due. Exposed for tests: an
    idle-but-waiting coordinator must sleep the full gap, not busy-poll a
    fixed tick. *)

val attach : ?options:options -> Emc_core.Measure.t -> source list -> unit
(** Route the measure's batch cache misses through the fleet
    ([Measure.set_remote]). The first {!Members} source is also the
    result store: fully-stored points merge without dispatch, exactly as
    if a worker had measured them, and a store that is down or
    unresolvable is logged and dispatched through. With a {!Members}
    source, a coordinator whose listed workers are all dead waits up to
    [read_timeout] for a registered one. Raises {!Fleet_error}
    immediately on an empty source list, [depth < 1] or [chunk < 0];
    later batch failures raise it from inside [respond_many]. *)

(** {1 Wire codec} (exposed for the bench harness)

    The [/measure] request/response bodies — every value a lossless
    OCaml [%h] hex-float literal, every point the raw 25-vector of
    [Params.raw_of], so a round trip is bit-exact by construction. *)

(** A parsed [/measure] request — what the worker daemon executes. *)
type measure_request = {
  mr_workload : string;
  mr_variant : Emc_workloads.Workload.variant;
  mr_workload_scale : float;
  mr_smarts : Emc_sim.Smarts.params option;
  mr_points : (Emc_opt.Flags.t * Emc_sim.Config.t) array;
}

val measure_body :
  Emc_workloads.Workload.t ->
  variant:Emc_workloads.Workload.variant ->
  workload_scale:float ->
  smarts:Emc_sim.Smarts.params option ->
  (Emc_opt.Flags.t * Emc_sim.Config.t) array ->
  string
(** Serialize one chunk's [/measure] request body (built once per chunk,
    reused verbatim across retries and steals). *)

val measure_request_of_body : string -> (measure_request, string) result

val result_body : Emc_core.Measure.triple array -> string
(** Serialize a worker's [/measure] response body. *)

val triples_of_body :
  expect:int -> string -> (Emc_core.Measure.triple array, string) result
(** Parse a [/measure] response, insisting on exactly [expect] triples. *)

(** {1 Membership client} *)

val members : ?timeout:float -> addr -> ((string * float) list, string) result
(** [GET /members] on a store: advertised worker addresses with seconds
    since their last heartbeat, expired entries already dropped. *)

val drain : ?timeout:float -> pidfile:string -> unit -> (int, string) result
(** Gracefully drain a local worker daemon: read its pid from [pidfile],
    send SIGTERM (the worker finishes in-flight requests, deregisters,
    removes the pidfile and exits 0) and wait up to [timeout] (default
    120 s) for the process to disappear. Returns the pid drained. *)

(** {1 Daemons}

    Each serves its route table in-process on {!Emc_serve.Server} (so an
    idle keep-alive client costs a connection slot, never the daemon),
    appends to the [EMC_ACCESS_LOG] access log when it is set, blocks
    until SIGTERM/SIGINT, then cleans up. A Unix-socket [listen] path
    holding anything but a stale socket is refused. *)

val run_worker :
  ?jobs:int ->
  ?cache_file:string ->
  ?register:addr ->
  ?advertise:string ->
  ?heartbeat:float ->
  ?pidfile:string ->
  listen:addr ->
  unit ->
  unit
(** One measurement worker. [jobs] fans each received chunk out over
    local forked processes ([lib/par]); [cache_file] is the worker's own
    persistent JSONL cache.

    [register] enrolls the worker in a store's membership table: a
    heartbeater child re-registers [advertise] (default: the listen
    address as printed by [Http.addr_to_string]) every [heartbeat]
    seconds (default 2) with a TTL of three beats — a failed beat is
    logged and retried at the next one — and exits on its own if the
    worker is SIGKILLed — so a dead worker ages out of [/members] within
    a TTL. On graceful shutdown the worker deregisters explicitly. The
    heartbeat and deregister RPCs time out after 10 s.

    [pidfile] (default [<socket>.pid] for Unix-socket listeners) is
    written on startup and removed on shutdown — the handle {!drain}
    uses. *)

val run_store : ?file:string -> listen:addr -> unit -> unit
(** The content-addressed result store. [file] persists the table in
    [--cache] JSONL format (loaded on start, appended per new key), so a
    store file is also a valid [--cache]/[emc cache] target. Endpoints:
    [POST /lookup] (keys in, hits out), [POST /put] (entries in, count of
    new keys out), [GET /get?k=], [POST /register] / [POST /deregister] /
    [GET /members] (the in-memory membership table; registrations expire
    after their TTL without a heartbeat), [/healthz], [/metrics]. *)

(** {1 Run journals ([--run-id] / [emc fleet-resume])} *)

val journal_init : run_id:string -> argv:string array -> string
(** Ensure the journal [EMC_RUN_DIR/<run_id>.jsonl] exists ([EMC_RUN_DIR]
    defaults to ["emc-runs"]): if new, create the directory and write the
    [emc-run-journal/1] header line recording [argv]. Returns its path —
    passed to [Measure.create ?journal_file]. *)

type journal_info = {
  ji_path : string;
  ji_run_id : string;
  ji_argv : string list;  (** argv recorded by the run that created it *)
  ji_entries : int;  (** completed measurements on file *)
  ji_skipped : int;  (** malformed/torn lines *)
}

val journal_info : string -> (journal_info, string) result
(** Read a journal's header and count its records ([emc fleet-resume]). *)
