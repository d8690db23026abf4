(** The one HTTP/1.1 server behind every daemon ([emc serve],
    [emc fleet-worker], [emc fleet-store]): a select()-driven scheduler
    over up to [max_conns] keep-alive connections serving a route table.

    A daemon is a list of [(method, path, handler)] routes. The server
    owns everything around the handlers: 404 for an unknown path, 405 for
    a known path with another method, a catch-all 500 when a handler
    raises, [GET /metrics], the per-endpoint [serve.*] counters and
    latency histograms (resolved once per route), an [X-Request-Id] on
    every response (the client's when it is sane, generated otherwise),
    the JSONL access log, and the debounced metrics-snapshot publish.

    Each connection is a state machine — read, handle, write, then
    keep-alive or close — with at most one response buffered, so
    pipelined requests on one connection are answered strictly in order
    and kernel back-pressure bounds memory. Deadlines are derived from the
    phase: a request must complete within [read_timeout] of its first
    byte (else 408), a response must drain within [read_timeout] (else the
    connection is cut), and a silent connection closes after
    [idle_timeout]. A connection is expired only after the select pass has
    read its pending input, so a request that arrived while a long handler
    ran is served, not timed out. SIGTERM/SIGINT stop accepting, let
    in-flight responses drain (bounded) and return from {!run}. *)

type handler = Http.request -> Buffer.t -> int * string
(** Render the response body into the (cleared) buffer and return
    [(status, content_type)]. *)

type table

val table : (string * string * handler) list -> table
(** Compile [(method, path, handler)] routes, adding [GET /metrics]. *)

val dispatch : table -> Http.request -> Buffer.t -> int * string
(** Route one request in-process: the server's 404/405/500 without its
    telemetry. *)

val reply : Buffer.t -> int -> Emc_obs.Json.t -> int * string
(** Render a JSON body (newline-terminated) as [application/json]. *)

val error_json : string -> string -> Emc_obs.Json.t
(** [{"error": {"code", "message"}}]. *)

val error : Buffer.t -> int -> string -> string -> int * string
(** {!reply} of an {!error_json}. *)

val bind : Unix.sockaddr -> Unix.file_descr
(** Bind and listen. A Unix-socket path holding a stale socket is
    unlinked first; any other file there is refused ([Failure]), never
    deleted. *)

val release : Unix.sockaddr -> Unix.file_descr -> unit
(** Close the listener and unlink its Unix-socket path. *)

val run :
  max_body:int ->
  read_timeout:float ->
  idle_timeout:float ->
  max_conns:int ->
  ?access_log:string ->
  ?snapshot_dir:string ->
  table ->
  Unix.file_descr ->
  unit
(** Serve until SIGTERM/SIGINT, then drain and return. [access_log]
    appends one JSONL line per request. With [snapshot_dir], this
    process publishes its metrics registry to
    [<snapshot_dir>/worker-<pid>.json] (at start, at most once per
    250 ms after responses complete, and on exit) and [GET /metrics]
    answers for the merge of every file there — how pre-forked workers
    sharing one listener report exact totals. *)

val merged_snapshots : string -> Emc_obs.Metrics.snapshot
(** The merge of every snapshot file in a [snapshot_dir]. *)
