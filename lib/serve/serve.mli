(** The model-serving daemon: loads one {!Emc_core.Artifact} and serves
    predictions, term rankings and model-based search over HTTP/1.1 —
    train once, persist, serve many, with zero simulator invocations.

    Endpoints (all responses JSON unless noted):

    - [POST /predict] — body [{"point": [c1, ...]}] for one coded design
      point or [{"points": [[...], ...]}] for a batch; add
      ["space": "raw"] to send raw parameter values instead (coded through
      the artifact's schema). Points are validated against the schema's
      arity. Responses: [{"prediction": p}] / [{"predictions": [...]}],
      bit-identical to the in-process model.
    - [GET /rank?top=N] — significant terms sorted by |coefficient|
      strongest first, NaN coefficients last (the paper's Table-4
      reading), for every family. A malformed or non-positive [top] is a
      structured 400, never silently "all terms".
    - [POST /search] — GA over the served model (paper §6.3): body
      [{"config": "typical"}] or [{"march": [11 raw values]}], optional
      ["seed"], ["pop_size"], ["generations"]; a [pop_size] or
      [generations] above 1,000 is a 400 that names the cap. Returns
      prescribed flags, predicted cycles and the GA evaluation count.
    - [POST /pareto] — NSGA-II cycles × energy front over a two-response
      artifact (trained with [emc train --energy]); same body as
      [/search]. Returns [{"front": [...], "size", "evaluations",
      "seed"}], byte-identical to [emc pareto --json] at the same seed
      and parameters; 409 [no_energy_response] when the artifact has no
      energy model.
    - [GET /healthz] — liveness plus artifact identity.
    - [GET /metrics] — Prometheus text exposition aggregated across
      {e all} pre-forked workers: each worker publishes an atomic
      registry-snapshot file at startup and after responses complete,
      and the scrape merges them — counters sum exactly and latency
      histograms merge bucket-wise into real cumulative [le=]-bucket
      Prometheus histograms, whichever worker answers. (Publishes
      happen {e after} the response write completes and are debounced
      to at most one per 250 ms per worker, so a scrape may trail
      another worker's very latest responses by up to the debounce
      interval; the answering worker's own numbers are always exact,
      and everything converges within the interval.)

    Observability: every request carries an id (the client's
    [X-Request-Id] when it sends a sane one, generated otherwise) that is
    echoed on the response; with [EMC_ACCESS_LOG=<file>] (or
    [--access-log]) each request appends one JSONL record with the id,
    status, sizes and per-phase parse/handle/write timings; with
    [EMC_TRACE=<file>] each worker writes those same phases as Chrome
    trace spans to [<file>.<pid>].

    Errors are structured JSON ([{"error": {"code", "message"}}]) with
    correct status codes (400/404/405/408/413/415/500); no exception
    escapes to a client.

    Concurrency: the daemon pre-forks [workers] processes (the [lib/par]
    fork pattern) sharing one listening socket; each serves the route
    table on {!Server}, a select()-driven scheduler over up to
    [max_conns] keep-alive connections, so a slow or idle client costs a
    connection slot, never a worker. Deadlines, in-order pipelining,
    back-pressure and the graceful SIGINT/SIGTERM drain are the
    server's; the master waits for every worker, then unlinks the Unix
    socket. *)

type opts = {
  listen : Http.addr;
  workers : int;  (** pre-forked scheduler workers (>= 1) *)
  max_body : int;  (** request body cap in bytes *)
  read_timeout : float;
      (** whole-request read deadline and response-drain deadline, seconds *)
  idle_timeout : float;
      (** close a keep-alive connection with no request in flight after
          this many seconds of silence *)
  max_conns : int;
      (** per-worker concurrent-connection cap (select() bounds this to
          roughly 1000 per process) *)
  access_log : string option;
      (** JSONL access-log path (append); every worker writes to it,
          one whole line per request *)
}

type hot
(** Per-worker serving context: the route table, whose /predict stages
    the artifact's evaluator once ({!Emc_regress.Repr.eval}), and the
    reused response-body buffer. Not shareable between concurrent
    evaluators. *)

val make_hot : Emc_core.Artifact.t -> hot

val handle_into : hot -> Http.request -> int * string
(** [(status, content_type)] for one request, the response body rendered
    into {!hot_body} (valid until the next call) — what the daemon's
    server runs, minus its telemetry. *)

val hot_body : hot -> Buffer.t
(** The response body rendered by the last {!handle_into}. *)

val run : opts -> Emc_core.Artifact.t -> unit
(** Bind, serve until SIGINT/SIGTERM, clean up. Blocks. *)
