(** [emc loadgen] — a load-generating SLO harness for the serving daemon.

    {!run} starts [concurrency] generators under [Par.map] — forked
    children, or in-process when there is one (it then resets the
    caller's metrics registry) — each owning one keep-alive connection
    to the target, so
    [--connections] is a client-side knob, decoupled from the daemon's
    [--workers] count (the multiplexed daemon serves many connections
    per worker). Two pacing modes:

    - {b Open loop} ([--rps R]): each child schedules arrivals by a
      seeded exponential process at [R / concurrency] requests/second
      and measures latency from the {e scheduled} arrival time, not the
      send time — so a stalled server accrues the queueing delay it
      actually caused (no coordinated omission, the wrk2 correction).
    - {b Closed loop}: each child issues requests back-to-back, latency
      measured from send. Throughput is whatever the server sustains.

    Generators record latencies into the bounded log-scale histograms of
    {!Emc_obs.Metrics} and return a registry {!Emc_obs.Metrics.snapshot};
    {!run} merges them bucket-wise — the same
    machinery the daemon's cross-worker [/metrics] uses — and derives
    the report. Everything is deterministic from [seed] except the
    latencies themselves.

    Request bodies are valid by construction: the driver probes
    [GET /healthz] first and builds coded points of the advertised
    dimensionality, so a healthy server serves 200s, and any 4xx/5xx in
    the report is the server's fault, not the generator's. *)

type mode =
  | Open_loop of float  (** target requests/second across all children *)
  | Closed_loop

type opts = {
  target : Emc_serve.Http.addr;
  mode : mode;
  concurrency : int;  (** child generators, one connection each (>= 1) *)
  duration : float;  (** seconds of load *)
  seed : int;  (** pacing + payload determinism *)
  mix : (string * int) list;
      (** weighted endpoint mix; names: [predict], [predict_batch],
          [rank], [healthz], [think]. Weights are relative integers. A
          [think] draw sends nothing: in closed loop the child sleeps
          [think] seconds while {e holding its keep-alive connection
          open} (the slow-client shape that pinned the old
          one-connection-per-worker daemon); in open loop the draw
          consumes the arrival without a request. *)
  batch : int;  (** points per [predict_batch] request *)
  timeout : float;  (** per-response receive timeout, seconds *)
  think : float;
      (** seconds a closed-loop child holds its connection open on a
          [think] draw (> 0) *)
}

val default_mix : (string * int) list
(** [predict=8, predict_batch=1, healthz=1]. *)

val default_opts : Emc_serve.Http.addr -> opts
(** Closed loop, 4 children, 10 s, seed 42, {!default_mix}, batch 16,
    5 s timeout, 0.2 s think time. *)

type report = {
  r_mode : mode;
  r_concurrency : int;
  r_wall_s : float;  (** longest child wall-clock, seconds *)
  r_sent : int;  (** requests written to a socket *)
  r_responses : int;  (** well-formed responses read back *)
  r_achieved_rps : float;  (** [r_responses /. r_wall_s] *)
  r_2xx : int;
  r_4xx : int;
  r_5xx : int;
  r_connect_errors : int;
  r_timeouts : int;
  r_protocol_errors : int;  (** unparseable / truncated responses *)
  r_id_mismatches : int;  (** response [X-Request-Id] <> the one sent *)
  r_late : int;  (** open loop: arrivals already overdue when scheduled *)
  r_latency : Emc_obs.Metrics.hsnap option;  (** merged, all endpoints *)
  r_by_endpoint : (string * Emc_obs.Metrics.hsnap) list;
  r_snapshot : Emc_obs.Metrics.snapshot;  (** full merged registry *)
}

val run : opts -> (report, string) result
(** Probe the target, fork the children, drive the load, merge. [Error]
    only for harness-level failure (unreachable target, child crash);
    server-side errors land in the report. *)

val errors_total : report -> int
(** Connect + timeout + protocol + 4xx + 5xx. *)

val percentile : report -> float -> float option
(** [percentile r 99.0] — overall latency percentile in seconds, [None]
    when no response was ever read. *)

val report_to_json : report -> Emc_obs.Json.t
(** Schema ["emc-loadgen-report/1"]: achieved rps, p50/p90/p99/p99.9,
    error counts by class, per-endpoint latency blocks. *)

(** {1 SLOs} *)

type slo = { slo_key : string; slo_bound : float }

val parse_slo : string -> (slo, string) result
(** ["p99=0.050"] style. Keys: [p50 p90 p99 p999 mean max] (latency
    seconds, upper bound), [rps] (lower bound), [error_rate] (errors /
    sent, upper bound), [errors 5xx 4xx timeouts] (counts, upper
    bound). *)

val check_slo : report -> slo -> (float * bool) option
(** [(actual, ok)] for one assertion; [None] for an unknown key. A
    latency SLO with no responses to measure is a violation. *)
