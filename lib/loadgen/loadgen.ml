(* Load-generating SLO harness for the serving daemon: generators
   forked by Par.map over keep-alive connections, open-loop (coordinated-
   omission-free) or closed-loop pacing, latencies recorded into the
   bounded Metrics histograms and merged exactly like the daemon's own
   cross-worker /metrics aggregation. *)

module Json = Emc_obs.Json
module Metrics = Emc_obs.Metrics
module Rng = Emc_util.Rng
module Http = Emc_serve.Http

type mode = Open_loop of float | Closed_loop

type opts = {
  target : Http.addr;
  mode : mode;
  concurrency : int;
  duration : float;
  seed : int;
  mix : (string * int) list;
  batch : int;
  timeout : float;
  think : float;
}

let default_mix = [ ("predict", 8); ("predict_batch", 1); ("healthz", 1) ]

let default_opts target =
  { target;
    mode = Closed_loop;
    concurrency = 4;
    duration = 10.0;
    seed = 42;
    mix = default_mix;
    batch = 16;
    timeout = 5.0;
    think = 0.2 }

let known_endpoints = [ "predict"; "predict_batch"; "rank"; "healthz"; "think" ]

let validate_mix mix =
  if mix = [] then Error "empty endpoint mix"
  else
    let rec go = function
      | [] -> Ok ()
      | (name, w) :: rest ->
          if not (List.mem name known_endpoints) then
            Error
              (Printf.sprintf "unknown endpoint %S in mix (want %s)" name
                 (String.concat "|" known_endpoints))
          else if w <= 0 then
            Error (Printf.sprintf "endpoint %S needs a positive weight, got %d" name w)
          else go rest
    in
    go mix

(* -------- requests -------- *)

let coded_point rng dims =
  Json.List (List.init dims (fun _ -> Json.Float (Rng.float rng 2.0 -. 1.0)))

(* Bodies are valid by construction (points of the probed
   dimensionality, coded in [-1, 1]), so every 4xx/5xx in the report is
   the server's doing. *)
let build_request ~rng ~dims ~batch = function
  | "healthz" -> ("GET", "/healthz", "")
  | "rank" -> ("GET", "/rank?top=8", "")
  | "predict" ->
      ("POST", "/predict", Json.to_string (Json.Obj [ ("point", coded_point rng dims) ]))
  | "predict_batch" ->
      ( "POST",
        "/predict",
        Json.to_string
          (Json.Obj [ ("points", Json.List (List.init batch (fun _ -> coded_point rng dims))) ])
      )
  | ep -> invalid_arg ("Loadgen.build_request: " ^ ep)

let write ~id fd (meth, path, body) =
  let headers =
    ("X-Request-Id", id) :: (if body = "" then [] else [ ("Content-Type", "application/json") ])
  in
  Http.write_request fd ~meth ~path ~headers ~body ()

(* -------- the probe -------- *)

let try_probe ~timeout target =
  match
    Http.call ~timeout target ~meth:"GET" ~path:"/healthz"
      ~headers:[ ("X-Request-Id", "lg-probe") ] ()
  with
  | Error e -> Error (Http.error_to_string e)
  | Ok resp when resp.Http.status <> 200 ->
      Error (Printf.sprintf "/healthz returned %d" resp.Http.status)
  | Ok resp -> (
      match Json.parse resp.Http.resp_body with
      | Error e -> Error ("bad /healthz JSON: " ^ e)
      | Ok j -> (
          match Json.get "dims" Json.as_int j with
          | Ok d when d > 0 -> Ok d
          | _ -> Error "/healthz carries no positive \"dims\""))

let probe ?(wait = 5.0) ~timeout target =
  let deadline = Unix.gettimeofday () +. wait in
  let rec go () =
    match try_probe ~timeout target with
    | Ok d -> Ok d
    | Error e ->
        if Unix.gettimeofday () < deadline then begin
          Unix.sleepf 0.1;
          go ()
        end
        else Error e
  in
  go ()

(* -------- one generator -------- *)

let worker_loop opts sockaddr dims idx =
  Metrics.reset ();
  let rng = Rng.create (opts.seed + (7919 * idx) + 1) in
  let m_sent = Metrics.counter "loadgen.sent" in
  let m_resp = Metrics.counter "loadgen.responses" in
  let m_2xx = Metrics.counter "loadgen.status_2xx" in
  let m_4xx = Metrics.counter "loadgen.status_4xx" in
  let m_5xx = Metrics.counter "loadgen.status_5xx" in
  let m_conn = Metrics.counter "loadgen.connect_errors" in
  let m_timeout = Metrics.counter "loadgen.timeouts" in
  let m_proto = Metrics.counter "loadgen.protocol_errors" in
  let m_mismatch = Metrics.counter "loadgen.id_mismatches" in
  let m_late = Metrics.counter "loadgen.late" in
  let h_all = Metrics.histogram "loadgen.latency_seconds" in
  let h_by = Hashtbl.create 8 in
  let h_ep name =
    match Hashtbl.find_opt h_by name with
    | Some h -> h
    | None ->
        let h = Metrics.histogram ("loadgen.latency_seconds." ^ name) in
        Hashtbl.add h_by name h;
        h
  in
  let total_weight = List.fold_left (fun a (_, w) -> a + w) 0 opts.mix in
  let pick_endpoint () =
    let r = Rng.int rng total_weight in
    let rec go acc = function
      | [ (name, _) ] -> name
      | (name, w) :: rest -> if r < acc + w then name else go (acc + w) rest
      | [] -> assert false
    in
    go 0 opts.mix
  in
  let conn = ref None in
  let drop_conn () =
    match !conn with
    | None -> ()
    | Some fd ->
        (try Unix.close fd with _ -> ());
        conn := None
  in
  let get_conn () =
    match !conn with
    | Some fd -> Some fd
    | None -> (
        match Http.connect ~timeout:opts.timeout sockaddr with
        | Ok fd ->
            conn := Some fd;
            Some fd
        | Error _ ->
            Metrics.incr m_conn;
            None)
  in
  (* Send and read one exchange; a stale keep-alive connection (server
     closed it between our requests) earns one silent retry on a fresh
     connection before anything is counted as an error. *)
  let rec attempt ~retried ~id req =
    match get_conn () with
    | None -> `No_conn
    | Some fd -> (
        if not retried then Metrics.incr m_sent;
        match write ~id fd req with
        | Error _ ->
            drop_conn ();
            if retried then begin
              Metrics.incr m_proto;
              `Fail
            end
            else attempt ~retried:true ~id req
        | Ok () -> (
            match Http.read_response fd with
            | Ok resp ->
                if Http.response_header resp "connection" = Some "close" then drop_conn ();
                `Ok resp
            | Error Http.Closed ->
                drop_conn ();
                if retried then begin
                  Metrics.incr m_proto;
                  `Fail
                end
                else attempt ~retried:true ~id req
            | Error Http.Timeout ->
                Metrics.incr m_timeout;
                drop_conn ();
                `Fail
            | Error _ ->
                Metrics.incr m_proto;
                drop_conn ();
                `Fail))
  in
  let seq = ref 0 in
  let start = Unix.gettimeofday () in
  let deadline = start +. opts.duration in
  (* A "think" draw holds the keep-alive connection open without sending
     anything — the slow-client shape that used to pin a whole worker. In
     closed loop the child sleeps [think] (clipped to the deadline); in
     open loop the draw just consumes the arrival. *)
  let do_think () =
    ignore (get_conn ());
    match opts.mode with
    | Open_loop _ -> ()
    | Closed_loop ->
        let dt = Float.min opts.think (deadline -. Unix.gettimeofday ()) in
        if dt > 0.0 then Unix.sleepf dt
  in
  let do_request t0 =
    let ep = pick_endpoint () in
    if ep = "think" then do_think ()
    else begin
    let id = Printf.sprintf "lg%d-%d" idx !seq in
    incr seq;
    match attempt ~retried:false ~id (build_request ~rng ~dims ~batch:opts.batch ep) with
    | `No_conn ->
        (* Target unreachable right now: don't spin the CPU re-counting
           connect errors at memory speed. *)
        Unix.sleepf 0.01
    | `Fail -> ()
    | `Ok resp ->
        let dt = Unix.gettimeofday () -. t0 in
        Metrics.incr m_resp;
        Metrics.observe h_all dt;
        Metrics.observe (h_ep ep) dt;
        (if resp.Http.status >= 200 && resp.Http.status < 300 then Metrics.incr m_2xx
         else if resp.Http.status >= 500 then Metrics.incr m_5xx
         else if resp.Http.status >= 400 then Metrics.incr m_4xx);
        if Http.response_header resp "x-request-id" <> Some id then Metrics.incr m_mismatch
    end
  in
  (match opts.mode with
  | Closed_loop ->
      let rec loop () =
        if Unix.gettimeofday () < deadline then begin
          do_request (Unix.gettimeofday ());
          loop ()
        end
      in
      loop ()
  | Open_loop rps ->
      let rate = rps /. float_of_int opts.concurrency in
      let inter_arrival () =
        (* Exponential inter-arrivals: a Poisson open-loop stream. The
           argument of log is in (0, 1] so this never overflows. *)
        -.Float.log (1.0 -. Rng.float rng 1.0) /. rate
      in
      let next = ref (start +. inter_arrival ()) in
      let rec loop () =
        let sched = !next in
        if sched < deadline then begin
          next := sched +. inter_arrival ();
          let now = Unix.gettimeofday () in
          if sched > now then Unix.sleepf (sched -. now) else Metrics.incr m_late;
          (* Latency counts from the scheduled arrival: a stalled server
             is charged for the queueing delay it caused (no coordinated
             omission). *)
          do_request sched;
          loop ()
        end
      in
      loop ());
  drop_conn ();
  (Metrics.snapshot (), Unix.gettimeofday () -. start)

(* -------- the report -------- *)

type report = {
  r_mode : mode;
  r_concurrency : int;
  r_wall_s : float;
  r_sent : int;
  r_responses : int;
  r_achieved_rps : float;
  r_2xx : int;
  r_4xx : int;
  r_5xx : int;
  r_connect_errors : int;
  r_timeouts : int;
  r_protocol_errors : int;
  r_id_mismatches : int;
  r_late : int;
  r_latency : Metrics.hsnap option;
  r_by_endpoint : (string * Metrics.hsnap) list;
  r_snapshot : Metrics.snapshot;
}

let latency_prefix = "loadgen.latency_seconds."

let report_of ~mode ~concurrency ~wall snapshot =
  let c name = Option.value ~default:0 (List.assoc_opt name (Metrics.snapshot_counters snapshot)) in
  let hists = Metrics.snapshot_histograms snapshot in
  let responses = c "loadgen.responses" in
  let by_endpoint =
    List.filter_map
      (fun (name, h) ->
        let n = String.length latency_prefix in
        if String.length name > n && String.sub name 0 n = latency_prefix then
          Some (String.sub name n (String.length name - n), h)
        else None)
      hists
  in
  { r_mode = mode;
    r_concurrency = concurrency;
    r_wall_s = wall;
    r_sent = c "loadgen.sent";
    r_responses = responses;
    r_achieved_rps = (if wall > 0.0 then float_of_int responses /. wall else 0.0);
    r_2xx = c "loadgen.status_2xx";
    r_4xx = c "loadgen.status_4xx";
    r_5xx = c "loadgen.status_5xx";
    r_connect_errors = c "loadgen.connect_errors";
    r_timeouts = c "loadgen.timeouts";
    r_protocol_errors = c "loadgen.protocol_errors";
    r_id_mismatches = c "loadgen.id_mismatches";
    r_late = c "loadgen.late";
    r_latency = List.assoc_opt "loadgen.latency_seconds" hists;
    r_by_endpoint = by_endpoint;
    r_snapshot = snapshot }

let percentile r q = Option.bind r.r_latency (fun h -> Metrics.hsnap_percentile h q)

let run opts =
  let ( let* ) = Result.bind in
  let* () =
    if opts.concurrency < 1 then Error "connections must be >= 1"
    else if opts.duration <= 0.0 then Error "duration must be positive"
    else if opts.think <= 0.0 then Error "think time must be positive"
    else if (match opts.mode with Open_loop r -> r <= 0.0 | Closed_loop -> false) then
      Error "target rps must be positive"
    else validate_mix opts.mix
  in
  let* sockaddr, dims =
    Result.map_error
      (fun e -> "target probe failed: " ^ e)
      (let* sockaddr = Http.sockaddr_of_addr opts.target in
       let* dims = probe ~timeout:opts.timeout opts.target in
       Ok (sockaddr, dims))
  in
  let previous_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  match
    Fun.protect
      ~finally:(fun () -> Sys.set_signal Sys.sigpipe previous_sigpipe)
      (fun () ->
        Emc_par.Par.map ~jobs:opts.concurrency (worker_loop opts sockaddr dims)
          (Array.init opts.concurrency Fun.id))
  with
  | exception Emc_par.Par.Worker_error e -> Error e
  | results ->
      let merged, wall =
        Array.fold_left
          (fun (acc, wall) (snap, w) -> (Metrics.merge acc snap, Float.max wall w))
          (Metrics.snapshot_empty, 0.0) results
      in
      Ok (report_of ~mode:opts.mode ~concurrency:opts.concurrency ~wall merged)

(* -------- JSON report -------- *)

let latency_json h =
  match Metrics.hsnap_stats h with
  | None -> Json.Obj [ ("count", Json.Int 0) ]
  | Some s ->
      let p q = match Metrics.hsnap_percentile h q with Some v -> Json.Float v | None -> Json.Null in
      Json.Obj
        [ ("count", Json.Int s.Metrics.count);
          ("mean", Json.Float s.Metrics.mean);
          ("min", Json.Float s.Metrics.min);
          ("max", Json.Float s.Metrics.max);
          ("p50", Json.Float s.Metrics.p50);
          ("p90", Json.Float s.Metrics.p90);
          ("p99", Json.Float s.Metrics.p99);
          ("p999", p 99.9) ]

let report_to_json r =
  let mode_fields =
    match r.r_mode with
    | Open_loop rps -> [ ("mode", Json.Str "open"); ("target_rps", Json.Float rps) ]
    | Closed_loop -> [ ("mode", Json.Str "closed") ]
  in
  Json.Obj
    ([ ("schema", Json.Str "emc-loadgen-report/1") ]
    @ mode_fields
    @ [ ("concurrency", Json.Int r.r_concurrency);
        ("duration_s", Json.Float r.r_wall_s);
        ("sent", Json.Int r.r_sent);
        ("responses", Json.Int r.r_responses);
        ("achieved_rps", Json.Float r.r_achieved_rps);
        ("latency_s",
         match r.r_latency with
         | Some h -> latency_json h
         | None -> Json.Obj [ ("count", Json.Int 0) ]);
        ("by_endpoint", Json.Obj (List.map (fun (n, h) -> (n, latency_json h)) r.r_by_endpoint));
        ("errors",
         Json.Obj
           [ ("connect", Json.Int r.r_connect_errors);
             ("timeout", Json.Int r.r_timeouts);
             ("protocol", Json.Int r.r_protocol_errors);
             ("status_4xx", Json.Int r.r_4xx);
             ("status_5xx", Json.Int r.r_5xx);
             ("id_mismatch", Json.Int r.r_id_mismatches) ]);
        ("late", Json.Int r.r_late) ])

(* -------- SLOs -------- *)

type slo = { slo_key : string; slo_bound : float }

let parse_slo s =
  match String.index_opt s '=' with
  | None -> Error (Printf.sprintf "SLO %S: want key=bound, e.g. p99=0.05" s)
  | Some i -> (
      let key = String.sub s 0 i in
      let bound = String.sub s (i + 1) (String.length s - i - 1) in
      match float_of_string_opt bound with
      | None -> Error (Printf.sprintf "SLO %S: bound %S is not a number" s bound)
      | Some b -> Ok { slo_key = key; slo_bound = b })

let errors_total r =
  r.r_connect_errors + r.r_timeouts + r.r_protocol_errors + r.r_4xx + r.r_5xx

let check_slo r { slo_key; slo_bound } =
  let latency f =
    match Option.bind r.r_latency f with
    | Some v -> Some (v, v <= slo_bound)
    | None -> Some (Float.nan, false) (* nothing measured: can't meet a latency SLO *)
  in
  let count_le n =
    let v = float_of_int n in
    Some (v, v <= slo_bound)
  in
  match slo_key with
  | "p50" -> latency (fun h -> Metrics.hsnap_percentile h 50.0)
  | "p90" -> latency (fun h -> Metrics.hsnap_percentile h 90.0)
  | "p99" -> latency (fun h -> Metrics.hsnap_percentile h 99.0)
  | "p999" -> latency (fun h -> Metrics.hsnap_percentile h 99.9)
  | "mean" -> latency (fun h -> Option.map (fun s -> s.Metrics.mean) (Metrics.hsnap_stats h))
  | "max" -> latency (fun h -> Option.map (fun s -> s.Metrics.max) (Metrics.hsnap_stats h))
  | "rps" -> Some (r.r_achieved_rps, r.r_achieved_rps >= slo_bound)
  | "error_rate" ->
      let rate = float_of_int (errors_total r) /. float_of_int (max 1 r.r_sent) in
      Some (rate, rate <= slo_bound)
  | "errors" -> count_le (errors_total r)
  | "5xx" -> count_le r.r_5xx
  | "4xx" -> count_le r.r_4xx
  | "timeouts" -> count_le r.r_timeouts
  | _ -> None
