module Json = Emc_obs.Json
module Log = Emc_obs.Log
module Metrics = Emc_obs.Metrics
module Trace = Emc_obs.Trace
module Proc = Emc_par.Proc

(** The multiplexed HTTP/1.1 server behind every daemon (see server.mli). *)

type handler = Http.request -> Buffer.t -> int * string

let reply b status j =
  Json.to_buffer b j;
  Buffer.add_char b '\n';
  (status, "application/json")

let error_json code msg =
  Json.Obj [ ("error", Json.Obj [ ("code", Json.Str code); ("message", Json.Str msg) ]) ]

let error b status code msg = reply b status (error_json code msg)

(* ---------------- metrics ---------------- *)

let m_requests = Metrics.counter "serve.requests"
let m_errors = Metrics.counter "serve.errors"
let m_connections = Metrics.counter "serve.connections"

let count_error status =
  Metrics.incr m_errors;
  Metrics.incr (Metrics.counter (Printf.sprintf "serve.errors.%d" status))

(* Cross-process aggregation: a process serving with a snapshot
   directory publishes its whole registry there as an atomic snapshot
   file (write + rename) at start, after responses complete, and on
   exit. [GET /metrics] merges every file — counters sum exactly,
   histograms merge bucket-wise — so pre-forked workers sharing one
   listener answer for the whole daemon whichever picks the scrape up.

   Serializing and renaming the snapshot on every response is pure
   overhead on the hot path, so publishes are debounced: a response
   marks the registry dirty and a publish happens at most once per
   [publish_interval]; the loop flushes a dirty registry once the
   interval has passed (its select timeout is capped accordingly, so
   staleness is bounded even when idle). A scrape publishes its live
   registry first, so the answering process's own numbers are exact. *)

let snapshots : (string * string) option ref = ref None (* directory, own file *)
let publish_dirty = ref false
let publish_last = ref neg_infinity
let publish_interval = 0.25

let publish_snapshot () =
  publish_dirty := false;
  publish_last := Unix.gettimeofday ();
  match !snapshots with
  | None -> ()
  | Some (_, path) -> (
      try
        let tmp = path ^ ".tmp" in
        let oc = open_out tmp in
        output_string oc (Json.to_string (Metrics.snapshot_to_json (Metrics.snapshot ())));
        output_char oc '\n';
        close_out oc;
        Sys.rename tmp path
      with Sys_error msg -> Log.warn ~src:"serve" "cannot publish metrics snapshot: %s" msg)

let publish_soon () =
  publish_dirty := true;
  if Unix.gettimeofday () -. !publish_last >= publish_interval then publish_snapshot ()

let publish_if_due () =
  if !publish_dirty && Unix.gettimeofday () -. !publish_last >= publish_interval then
    publish_snapshot ()

let read_snapshot_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> None
  | contents -> (
      match Result.bind (Json.parse (String.trim contents)) Metrics.snapshot_of_json with
      | Ok s -> Some s
      | Error e ->
          Log.warn ~src:"serve" "skipping malformed snapshot %s: %s" path e;
          None)

let merged_snapshots dir =
  Sys.readdir dir |> Array.to_list |> List.sort String.compare
  |> List.filter_map (fun f ->
         if Filename.check_suffix f ".json" then read_snapshot_file (Filename.concat dir f)
         else None)
  |> List.fold_left Metrics.merge Metrics.snapshot_empty

(* Prometheus text exposition: counters and gauges map directly;
   histograms become real cumulative [le=]-bucket histograms (the
   registry's log-scale buckets, occupied buckets only, plus +Inf). *)
let prometheus_into b s =
  let name n =
    "emc_"
    ^ String.map (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' as c -> c | _ -> '_') n
  in
  List.iter
    (fun (raw, v) ->
      let n = name raw in
      Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n%s %d\n" n n v))
    (Metrics.snapshot_counters s);
  List.iter
    (fun (raw, v) ->
      let n = name raw in
      Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n%s %.17g\n" n n v))
    (Metrics.snapshot_gauges s);
  List.iter
    (fun (raw, h) ->
      let n = name raw in
      Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" n);
      List.iter
        (fun (le, cum) ->
          Buffer.add_string b (Printf.sprintf "%s_bucket{le=\"%.9g\"} %d\n" n le cum))
        (Metrics.hsnap_cumulative h);
      let count, sum =
        match Metrics.hsnap_stats h with
        | Some st -> (st.Metrics.count, st.Metrics.sum)
        | None -> (0, 0.0)
      in
      Buffer.add_string b (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n count);
      Buffer.add_string b (Printf.sprintf "%s_sum %.17g\n" n sum);
      Buffer.add_string b (Printf.sprintf "%s_count %d\n" n count))
    (Metrics.snapshot_histograms s)

(* The scrape's own registry (request counters just bumped) goes through
   the same file path as everyone else's: publish first, then merge all
   files, so no process is double-counted and none is stale. *)
let metrics_handler _req b =
  prometheus_into b
    (match !snapshots with
    | None -> Metrics.snapshot ()
    | Some (dir, _) ->
        publish_snapshot ();
        merged_snapshots dir);
  (200, "text/plain; version=0.0.4")

(* ---------------- request ids + access log ----------------

   Every request gets an id: the client's X-Request-Id when it sends a
   sane one, a generated one otherwise; either way the response echoes
   it, and the JSONL access log carries it with per-phase timings, so one
   request can be followed from client through log to trace span. *)

let rid_seq = ref 0

let gen_request_id () =
  Stdlib.incr rid_seq;
  Printf.sprintf "%08x-%04x-%06x"
    (Int64.to_int (Int64.of_float (Unix.gettimeofday () *. 1000.0)) land 0xffffffff)
    (Unix.getpid () land 0xffff) (!rid_seq land 0xffffff)

let valid_request_id id =
  let n = String.length id in
  n > 0 && n <= 128
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> true | _ -> false)
       id

let request_id req =
  match Http.header req "x-request-id" with
  | Some id when valid_request_id id -> id
  | _ -> gen_request_id ()

let access_log_oc : out_channel option ref = ref None

let open_access_log path =
  match open_out_gen [ Open_append; Open_creat ] 0o644 path with
  | oc -> access_log_oc := Some oc
  | exception Sys_error msg -> Log.err ~src:"serve" "cannot open access log %s: %s" path msg

let close_access_log () =
  match !access_log_oc with
  | None -> ()
  | Some oc ->
      access_log_oc := None;
      (try close_out oc with Sys_error _ -> ())

let log_access ~id ~meth ~path ~status ~bytes_in ~bytes_out ~parse_s ~handle_s ~write_s =
  match !access_log_oc with
  | None -> ()
  | Some oc ->
      let line =
        Json.to_string
          (Json.Obj
             [
               ("ts", Json.Float (Unix.gettimeofday ()));
               ("id", Json.Str id);
               ("worker", Json.Int (Unix.getpid ()));
               ("meth", Json.Str meth);
               ("path", Json.Str path);
               ("status", Json.Int status);
               ("bytes_in", Json.Int bytes_in);
               ("bytes_out", Json.Int bytes_out);
               ("parse_s", Json.Float parse_s);
               ("handle_s", Json.Float handle_s);
               ("write_s", Json.Float write_s);
             ])
      in
      (* one write + flush per line: lines from concurrent processes
         appending to the same file stay whole *)
      output_string oc (line ^ "\n");
      flush oc

(* ---------------- route tables ---------------- *)

(* One entry per path: its handlers by method and its telemetry handles,
   resolved once when the table is built. Unknown paths count under
   "other", which has no handlers. *)
type endpoint = {
  methods : (string * handler) list;
  requests : Metrics.counter;
  latency : Metrics.histogram;
}

type table = (string, endpoint) Hashtbl.t

let endpoint name methods =
  { methods;
    requests = Metrics.counter ("serve.requests." ^ name);
    latency = Metrics.histogram ("serve.latency_seconds." ^ name) }

let other = lazy (endpoint "other" [])

let table routes =
  let t = Hashtbl.create 16 in
  List.iter
    (fun (meth, path, h) ->
      let methods = match Hashtbl.find_opt t path with Some e -> e.methods | None -> [] in
      Hashtbl.replace t path (endpoint path (methods @ [ (meth, h) ])))
    (routes @ [ ("GET", "/metrics", metrics_handler) ]);
  t

let endpoint_of t path =
  match Hashtbl.find_opt t path with Some e -> e | None -> Lazy.force other

(* No exception ever escapes to the client as a dropped connection. *)
let respond_with e (req : Http.request) b =
  Buffer.clear b;
  match (List.assoc_opt req.Http.meth e.methods, e.methods) with
  | Some h, _ -> (
      try h req b
      with ex ->
        Log.warn ~src:"serve" "request handler raised: %s" (Printexc.to_string ex);
        Buffer.clear b;
        error b 500 "internal" "internal error; see server log")
  | None, [] -> error b 404 "not_found" ("no such endpoint: " ^ req.Http.path)
  | None, _ ->
      error b 405 "method_not_allowed" (req.Http.meth ^ " is not supported on " ^ req.Http.path)

let dispatch t (req : Http.request) b = respond_with (endpoint_of t req.Http.path) req b

(* ---------------- listener ---------------- *)

let bind addr =
  Proc.catch_stop ();
  (match addr with
  | Unix.ADDR_UNIX path -> (
      match Unix.lstat path with
      | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path (* stale socket from a dead server *)
      | _ -> failwith (path ^ " exists and is not a socket; refusing to replace it")
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ())
  | Unix.ADDR_INET _ -> ());
  let s = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  (match addr with
  | Unix.ADDR_INET _ -> Unix.setsockopt s Unix.SO_REUSEADDR true
  | Unix.ADDR_UNIX _ -> ());
  Unix.bind s addr;
  Unix.listen s 64;
  s

let release addr s =
  (try Unix.close s with Unix.Unix_error _ -> ());
  match addr with
  | Unix.ADDR_UNIX path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Unix.ADDR_INET _ -> ()

(* ---------------- the connection scheduler ----------------

   A select()-driven set of per-connection state machines over a
   non-blocking listening socket (shared when a daemon pre-forks):

     accept -> read (accumulate + incremental parse) -> handle
            -> write (non-blocking flush) -> keep-alive | close

   A connection is either reading (its input buffer holds at most a
   partial request) or writing (one rendered response is flushing; input
   bytes buffer in the kernel — natural per-connection back-pressure, so
   a pipelining client can't make the server buffer unbounded output).
   Deadlines are absolute and phase-derived: a partial request must
   complete within [read_timeout] of its first byte (a dribbling writer
   earns a 408), a response must drain within [read_timeout] (a stalled
   reader is cut off), and a silent idle connection is closed after
   [idle_timeout]. The access-log line and the metrics-snapshot publish
   for a response run only after its last byte reaches the kernel —
   queued as [post_write] when the flush goes partial — so neither ever
   sits between another connection's events. *)

type conn = {
  c_fd : Unix.file_descr;
  c_inb : Buffer.t;  (* unconsumed request bytes *)
  mutable c_need : int;  (* length [c_inb] must reach before the next parse *)
  mutable c_out : string;  (* rendered response being flushed *)
  mutable c_out_off : int;
  mutable c_writing : bool;
  mutable c_req_t0 : float;  (* arrival of the current request's first byte *)
  mutable c_idle_since : float;
  mutable c_write_deadline : float;
  mutable c_close_after : bool;
  mutable c_eof : bool;  (* peer half-closed its write side *)
  mutable c_post_write : (unit -> unit) option;
  mutable c_closed : bool;
}

type server = {
  routes : table;
  max_body : int;
  read_timeout : float;
  idle_timeout : float;
  chunk : Bytes.t;  (* reused read buffer *)
  body : Buffer.t;  (* the response body handlers render into *)
  outbuf : Buffer.t;  (* reused response render buffer *)
  mutable conns : conn list;
}

let conn_deadline st c =
  if c.c_writing then c.c_write_deadline
  else if Buffer.length c.c_inb > 0 then c.c_req_t0 +. st.read_timeout
  else c.c_idle_since +. st.idle_timeout

let close_conn st c =
  if not c.c_closed then begin
    c.c_closed <- true;
    c.c_post_write <- None;
    (try Unix.close c.c_fd with Unix.Unix_error _ -> ());
    st.conns <- List.filter (fun o -> o != c) st.conns
  end

(* Render head + the body currently in [st.body] into the conn's output
   string and start flushing. The first flush attempt happens inline: on
   an unloaded connection the whole response reaches the kernel here and
   [post_write] runs at once. *)
let rec enqueue_response st c ~status ~content_type ~keep_alive ~id =
  Buffer.clear st.outbuf;
  Http.response_head_into st.outbuf ~status ~content_type ~body_length:(Buffer.length st.body)
    ~keep_alive
    [ ("X-Request-Id", id) ];
  Buffer.add_buffer st.outbuf st.body;
  c.c_out <- Buffer.contents st.outbuf;
  c.c_out_off <- 0;
  c.c_writing <- true;
  if not keep_alive then c.c_close_after <- true;
  c.c_write_deadline <- Unix.gettimeofday () +. st.read_timeout;
  try_flush st c

and try_flush st c =
  if c.c_writing && not c.c_closed then begin
    let len = String.length c.c_out - c.c_out_off in
    match Unix.write_substring c.c_fd c.c_out c.c_out_off len with
    | n ->
        c.c_out_off <- c.c_out_off + n;
        if c.c_out_off >= String.length c.c_out then begin
          (* response delivered to the kernel: now (and only now) publish
             the snapshot and write the access-log line, then either close
             or return to reading — a pipelined next request may already
             be buffered, so re-parse immediately *)
          (match c.c_post_write with
          | Some f ->
              c.c_post_write <- None;
              f ()
          | None -> ());
          c.c_out <- "";
          c.c_out_off <- 0;
          c.c_writing <- false;
          if c.c_close_after || (c.c_eof && Buffer.length c.c_inb = 0) then close_conn st c
          else begin
            c.c_idle_since <- Unix.gettimeofday ();
            if Buffer.length c.c_inb > 0 then begin
              c.c_req_t0 <- c.c_idle_since;
              process_input st c
            end
          end
        end
        else try_flush st c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        () (* kernel buffer full: select on writability, deadline armed *)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> try_flush st c
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        (* response undeliverable: drop its post_write (the peer never got
           the bytes, so there is nothing to log) *)
        close_conn st c
  end

and protocol_error st c status code msg =
  Metrics.incr m_requests;
  count_error status;
  let id = gen_request_id () in
  let parse_s = Unix.gettimeofday () -. c.c_req_t0 in
  c.c_close_after <- true;
  Buffer.clear c.c_inb;
  Buffer.clear st.body;
  let _, content_type = error st.body status code msg in
  let bytes_out = Buffer.length st.body in
  c.c_post_write <-
    Some
      (fun () ->
        publish_soon ();
        log_access ~id ~meth:"-" ~path:"-" ~status ~bytes_in:0 ~bytes_out ~parse_s
          ~handle_s:0.0 ~write_s:0.0);
  enqueue_response st c ~status ~content_type ~keep_alive:false ~id

and handle_one st c (req : Http.request) =
  let t_parsed = Unix.gettimeofday () in
  let id = request_id req in
  let e = endpoint_of st.routes req.Http.path in
  (* counted before the handler runs, so a /metrics scrape counts itself *)
  Metrics.incr m_requests;
  Metrics.incr e.requests;
  let status, content_type =
    Trace.with_span ~cat:"serve" "handle"
      ~args:(fun () ->
        [ ("id", Json.Str id); ("method", Json.Str req.Http.meth);
          ("path", Json.Str req.Http.path) ])
      (fun () -> respond_with e req st.body)
  in
  let t_handled = Unix.gettimeofday () in
  Metrics.observe e.latency (t_handled -. t_parsed);
  if status >= 400 then count_error status;
  let keep_alive =
    (not (Proc.stopping ()))
    && (match Http.header req "connection" with
       | Some c -> String.lowercase_ascii c <> "close"
       | None -> true)
  in
  let meth = req.Http.meth and path = req.Http.path in
  let bytes_in = String.length req.Http.body in
  let bytes_out = Buffer.length st.body in
  let parse_s = t_parsed -. c.c_req_t0 and handle_s = t_handled -. t_parsed in
  c.c_post_write <-
    Some
      (fun () ->
        publish_soon ();
        log_access ~id ~meth ~path ~status ~bytes_in ~bytes_out ~parse_s ~handle_s
          ~write_s:(Unix.gettimeofday () -. t_handled));
  enqueue_response st c ~status ~content_type ~keep_alive ~id

and process_input st c =
  let have = Buffer.length c.c_inb in
  if (not c.c_writing) && (not c.c_closed) && have > 0 then
    match
      if have < c.c_need then Http.Incomplete c.c_need
      else Http.parse_request ~max_body:st.max_body (Buffer.contents c.c_inb)
    with
    | Http.Incomplete need ->
        c.c_need <- need;
        if c.c_eof then protocol_error st c 400 "bad_request" "truncated request"
    | Http.Invalid (Http.Too_large what) ->
        protocol_error st c 413 "too_large" (what ^ " exceed the configured limit")
    | Http.Invalid (Http.Bad msg) -> protocol_error st c 400 "bad_request" msg
    | Http.Invalid (Http.Timeout | Http.Closed | Http.Refused _) ->
        (* parse_request never produces these *)
        close_conn st c
    | Http.Parsed (req, consumed) ->
        let rest = Buffer.sub c.c_inb consumed (have - consumed) in
        Buffer.clear c.c_inb;
        Buffer.add_string c.c_inb rest;
        c.c_need <- 1;
        handle_one st c req

let on_readable st c =
  match Unix.read c.c_fd st.chunk 0 (Bytes.length st.chunk) with
  | 0 ->
      c.c_eof <- true;
      if c.c_writing then () (* finish the flush; closed at drain *)
      else if Buffer.length c.c_inb = 0 then close_conn st c
      else process_input st c (* Incomplete + eof -> 400 truncated *)
  | n ->
      if (not c.c_writing) && Buffer.length c.c_inb = 0 then c.c_req_t0 <- Unix.gettimeofday ();
      Buffer.add_subbytes c.c_inb st.chunk 0 n;
      if not c.c_writing then process_input st c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> close_conn st c

(* Deadline expiry, by phase: a stalled reader mid-flush is cut off, a
   dribbling request earns a 408, a silent idle connection closes
   without a response. *)
let expire_conn st c =
  if c.c_writing then close_conn st c
  else if Buffer.length c.c_inb > 0 then protocol_error st c 408 "timeout" "request read timed out"
  else close_conn st c

let run ~max_body ~read_timeout ~idle_timeout ~max_conns ?access_log ?snapshot_dir routes lsock
    =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  snapshots :=
    Option.map
      (fun dir -> (dir, Filename.concat dir (Printf.sprintf "worker-%d.json" (Unix.getpid ()))))
      snapshot_dir;
  publish_snapshot () (* visible to scrapes before the first request *);
  Option.iter open_access_log access_log;
  Unix.set_nonblock lsock;
  let st =
    { routes; max_body; read_timeout; idle_timeout; chunk = Bytes.create (16 * 1024);
      body = Buffer.create 4096; outbuf = Buffer.create 8192; conns = [] }
  in
  (* Non-blocking accept burst: drain the listening socket until EAGAIN
     (a sibling process won the race — fair enough at this scale) or the
     connection cap. *)
  let accept_burst () =
    let rec go () =
      if List.length st.conns < max_conns then
        match Unix.accept lsock with
        | fd, _ ->
            Unix.set_nonblock fd;
            Metrics.incr m_connections;
            let now = Unix.gettimeofday () in
            st.conns <-
              { c_fd = fd; c_inb = Buffer.create 1024; c_need = 1; c_out = ""; c_out_off = 0;
                c_writing = false; c_req_t0 = now; c_idle_since = now; c_write_deadline = now;
                c_close_after = false; c_eof = false; c_post_write = None; c_closed = false }
              :: st.conns;
            go ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
        | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> go ()
    in
    go ()
  in
  (* Once the stop flag is set, before this call or during it: stop
     accepting, let in-flight responses drain (bounded), then leave. *)
  let drain_deadline = lazy (Unix.gettimeofday () +. Float.min 5.0 read_timeout) in
  let running () =
    (not (Proc.stopping ()))
    || List.exists (fun c -> c.c_writing) st.conns
       && Unix.gettimeofday () < Lazy.force drain_deadline
  in
  while running () do
    publish_if_due ();
    let now = Unix.gettimeofday () in
    let accepting = (not (Proc.stopping ())) && List.length st.conns < max_conns in
    let rset =
      List.fold_left
        (fun acc c -> if c.c_writing || c.c_eof then acc else c.c_fd :: acc)
        (if accepting then [ lsock ] else [])
        st.conns
    in
    let wset = List.filter_map (fun c -> if c.c_writing then Some c.c_fd else None) st.conns in
    let timeout =
      let d = List.fold_left (fun acc c -> Float.min acc (conn_deadline st c)) infinity st.conns in
      let t = if d = infinity then 1.0 else Float.max 0.0 (Float.min 1.0 (d -. now)) in
      (* a pending debounced publish bounds the sleep so the flush lands
         within [publish_interval] even on an otherwise idle server *)
      if !publish_dirty then
        Float.max 0.0 (Float.min t (!publish_last +. publish_interval -. now))
      else t
    in
    match Unix.select rset wset [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | r, w, _ ->
        let selected = Unix.gettimeofday () in
        if List.memq lsock r then accept_burst ();
        let conn_of fd = List.find_opt (fun c -> c.c_fd = fd && not c.c_closed) st.conns in
        List.iter
          (fun fd ->
            if fd <> lsock then
              match conn_of fd with Some c -> on_readable st c | None -> ())
          r;
        List.iter
          (fun fd -> match conn_of fd with Some c when c.c_writing -> try_flush st c | _ -> ())
          w;
        (* Expire only what was already past its deadline when select
           looked. A connection whose deadline passed while a long handler
           ran is left to the next pass, which reads its pending input
           first — a request that arrived meanwhile is served, not closed
           unanswered or falsely timed out. *)
        List.iter
          (fun c -> if (not c.c_closed) && selected >= conn_deadline st c then expire_conn st c)
          st.conns
  done;
  List.iter (close_conn st) st.conns;
  publish_snapshot ();
  close_access_log ()
