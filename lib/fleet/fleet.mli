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
      chunks and lost workers age out and their chunks requeue. Every
      one of these decisions is {!Sched}'s, a state machine with no I/O
      and no clock of its own; the coordinator's driver only moves
      bytes;
    - a {b content-addressed result store} ([emc fleet-store],
      {!run_store}): keyed by bare [Measure.result_key]s, persisted as a
      {!Emc_core.Result_file}. Its one client is the coordinator (the
      first [@ADDR] source): it looks each batch up before dispatch and
      puts each chunk's results as it completes, so runs share results
      and a killed run resumes with zero re-simulation. It doubles as
      the membership registry.

    {b The bit-identity contract.} Results merged in first-occurrence
    order must be bit-identical to [--jobs 1] on one box — same values,
    same [measure.*] counters, same result-file bytes — regardless of
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
    stays comparable. *)

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
}

val default_options : options
(** chunk auto, depth 1, 5 s connect. The scheduler's timers are
    constants (see {!Sched}); store RPCs time out after 10 s. *)

val chunk_plan : chunk:int -> nworkers:int -> n:int -> (int * int) list
(** The fixed-slice chunking of [n] work items as [(start, length)]
    pairs: every index covered exactly once, no empty chunks, for every
    degenerate shape ([n] below the worker count, [n = 1], a chunk size
    above [n]). [chunk = 0] sizes automatically (~4 chunks per worker,
    capped at 32 points); negative raises {!Fleet_error}. Exposed for
    tests — the scheduler calls exactly this. *)

val attach : ?options:options -> Emc_core.Measure.t -> source list -> unit
(** Route the measure's batch cache misses through the fleet
    ([Measure.set_remote]). The first {!Members} source is also the
    result store: fully-stored points merge without dispatch, exactly as
    if a worker had measured them, and a store that is down or
    unresolvable is logged and dispatched through. With a {!Members}
    source, a coordinator whose listed workers are all dead waits up to
    600 s for a registered one. Raises {!Fleet_error} immediately on an
    empty source list, [depth < 1] or [chunk < 0]; later batch failures
    raise it from inside [respond_many]. *)

(** {1 Scheduler}

    Every decision of one batch, as a state machine that performs no I/O
    and reads time only from its [~now] argument. The coordinator's
    driver ({!attach}) owns the sockets: it polls membership and performs
    the store lookup before {!Sched.plan}, then performs each action
    {!Sched.next} returns, sleeps in [select] for {!Sched.wake} seconds or
    until a worker's bytes arrive, and feeds every framed response back
    as an event. Tests drive the same machine with a fake clock and fake
    workers. Its constants: a head-of-pipeline dispatch that runs 600 s
    fails its worker; with the queue drained, a head chunk running 30 s
    without a twin is stolen by an idle worker, first completion wins; a
    chunk that fails its third dispatch with no live twin fails the
    batch; an elastic fleet is polled every second and may stay empty for
    600 s. Workers are named by their address as
    [Http.addr_to_string] prints it, chunks by their index in the plan
    (the [X-Request-Id] of their dispatches). The [fleet.*] scheduling
    counters (dispatched, points_dispatched, retried, worker_failures,
    steals, workers_joined, workers_lost) are bumped here and nowhere
    else. *)
module Sched : sig
  type t

  type event =
    | Members of string list * bool
        (** one membership poll: the union of the workers every source
            listed, and whether every source answered. New addresses
            join; when every source answered, a polled worker missing
            from the union has left and is failed. An address is never
            revived within a batch. *)
    | Completed of string * Emc_core.Measure.triple array
        (** the response to the chunk at the head of the worker's
            pipeline, already checked against its id and arity *)
    | Failed of string * string
        (** the worker's connection failed (connect, write, read,
            framing, desync or a malformed body), with the reason: its
            whole pipeline requeues *)

  type action =
    | Send of string * int  (** dispatch a chunk to a worker *)
    | Close of string  (** the worker failed or left: drop its connection *)
    | Put of int * Emc_core.Measure.triple array
        (** a chunk's first completion: merge it and feed the store;
            exactly once per chunk, never for a duplicate *)
    | Poll  (** poll membership now and answer with {!Members} *)

  val create : depth:int -> elastic:bool -> string list -> t
  (** A scheduler over the static workers, in dispatch order; [elastic]
      when membership sources are polled. *)

  val plan : t -> now:float -> chunk:int -> int -> (int * int) list
  (** Slice [n] points with {!chunk_plan} over the live workers and queue
      every chunk; returns the plan, whose indices are the chunk ids. *)

  val handle : t -> now:float -> event -> unit
  (** Apply an event; the actions it decides come out of {!next}. Raises
      {!Fleet_error} when a chunk fails its third dispatch with no live
      twin. *)

  val next : t -> now:float -> action option
  (** The next action, or [None] when there is nothing to do until an
      event or {!wake}: queued actions first, then a due poll, expired
      deadlines, pipeline fill up to [depth] in worker order, and steals.
      Raises {!Fleet_error} as {!handle} does when an expired deadline
      fails a worker, when every worker of a static fleet has failed, and
      when an elastic fleet has had no live worker for 600 s. *)

  val wake : t -> now:float -> float
  (** Seconds the driver may sleep: until the nearest head-of-pipeline
      deadline or steal timer, or the next poll, clamped to [[0.001, 60]];
      a short wake (50 ms) when every such event is already due. A due
      event that cannot fire drops out rather than forcing a busy poll. *)

  val head : t -> string -> int option
  (** The chunk at the head of a live worker's pipeline, if any. *)

  val finished : t -> bool
  (** Every chunk of the plan has completed. *)
end

(** {1 Wire codec} (exposed for the bench harness)

    The [/measure] request/response bodies — every value a lossless
    OCaml [%h] hex-float literal, every point the raw 25-vector of
    [Params.raw_of], so a round trip is bit-exact by construction. A NaN
    keeps its sign but not its payload: [%h] prints every NaN as [nan]
    or [-nan]. *)

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
(** Parse a [/measure] request. Besides any shape error it rejects what
    the simulator cannot run: a [workload_scale] that is not finite and
    positive, and a SMARTS [unit_size] below 1, which would never advance
    the sampling loop. It also rejects a [workload_scale] above 1.0, the
    largest any scale preset uses: inputs grow linearly with it. *)

val result_body : Emc_core.Measure.triple array -> string
(** Serialize a worker's [/measure] response body. *)

val triples_of_body :
  expect:int -> string -> (Emc_core.Measure.triple array, string) result
(** Parse a [/measure] response, insisting on exactly [expect] triples. *)

(** {1 Membership client} *)

val members : ?timeout:float -> addr -> ((string * float) list, string) result
(** [GET /members] on a store: advertised worker addresses with seconds
    since their last heartbeat, expired entries already dropped. *)

(** {1 Daemons}

    Each serves its route table in-process on {!Emc_serve.Server} (so an
    idle keep-alive client costs a connection slot, never the daemon),
    appends to the [EMC_ACCESS_LOG] access log when it is set, blocks
    until SIGTERM/SIGINT, then cleans up. A Unix-socket [listen] path
    holding anything but a stale socket is refused. *)

val run_worker :
  ?jobs:int ->
  ?register:addr ->
  ?advertise:string ->
  ?heartbeat:float ->
  ?pidfile:string ->
  listen:addr ->
  unit ->
  unit
(** One measurement worker. It keeps one memo per protocol signature
    ([Scale.signature] of the request's [workload_scale] and [smarts]),
    for the 4 signatures used most recently, and no result file; the
    binaries it builds are dropped after each [/measure], so its memory
    grows neither with the points it serves nor with the signatures a
    client asks for. Evicting a signature loses only its memo hits. The
    [fleet.worker_measures] gauge counts the signatures kept.
    [jobs] fans each received chunk out over local forked processes
    ([lib/par]).

    [register] enrolls the worker in a store's membership table: a
    heartbeater child re-registers [advertise] (default: the listen
    address as printed by [Http.addr_to_string]) every [heartbeat]
    seconds (default 2) with a TTL of three beats — a failed beat is
    logged and retried at the next one — and exits on its own if the
    worker is SIGKILLed — so a dead worker ages out of [/members] within
    a TTL. On graceful shutdown the worker deregisters explicitly. The
    heartbeat and deregister RPCs time out after 10 s.

    [pidfile] (default {!default_pidfile}) is written once the socket is
    bound and removed on shutdown — the handle {!Emc_par.Proc.drain}
    uses. On SIGTERM the worker finishes its in-flight request,
    deregisters, removes the pidfile and exits 0. *)

val default_pidfile : addr -> string option
(** [<socket>.pid] for a Unix-socket listener, none for TCP. *)

val run_store : ?file:string -> listen:addr -> unit -> unit
(** The content-addressed result store. [file] persists the table as a
    {!Emc_core.Result_file} (loaded on start, each [/put]'s new keys
    appended in one write), so [emc cache] reads it; its keys are
    unsigned, so [--cache] loads skip them. Endpoints: [POST /lookup]
    (keys in, hits out), [POST /put] (entries in, count of new keys out),
    [POST /register] / [POST /deregister] / [GET /members] (the in-memory
    membership table; registrations expire after their TTL without a
    heartbeat), [/healthz], [/metrics]. *)
