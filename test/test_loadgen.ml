(** The load-generating SLO harness, driven against a real [Serve.run]
    daemon: report arithmetic (counts, achieved rps, percentile
    coherence, per-endpoint decomposition), SLO parsing and checking,
    and the JSON report schema. *)

module Lg = Emc_loadgen.Loadgen
module Http = Emc_serve.Http
module Json = Emc_obs.Json
module Metrics = Emc_obs.Metrics

let cb = Alcotest.(check bool)
let ci = Alcotest.(check int)

let test_slo_parsing () =
  (match Lg.parse_slo "p99=0.05" with
  | Ok s ->
      Alcotest.(check string) "key" "p99" s.Lg.slo_key;
      Alcotest.(check (float 0.0)) "bound" 0.05 s.Lg.slo_bound
  | Error e -> Alcotest.failf "p99=0.05 should parse: %s" e);
  cb "missing = rejected" true (Result.is_error (Lg.parse_slo "p99"));
  cb "non-numeric bound rejected" true (Result.is_error (Lg.parse_slo "p99=fast"));
  cb "count bounds parse" true (Result.is_ok (Lg.parse_slo "5xx=0"))

let test_opts_validation () =
  let t = Http.Unix_sock "/nonexistent.sock" in
  let base = Lg.default_opts t in
  cb "zero concurrency rejected" true
    (Result.is_error (Lg.run { base with Lg.concurrency = 0 }));
  cb "negative duration rejected" true
    (Result.is_error (Lg.run { base with Lg.duration = -1.0 }));
  cb "unknown endpoint rejected" true
    (Result.is_error (Lg.run { base with Lg.mix = [ ("teapot", 1) ] }));
  cb "zero weight rejected" true
    (Result.is_error (Lg.run { base with Lg.mix = [ ("predict", 0) ] }));
  cb "non-positive rps rejected" true
    (Result.is_error (Lg.run { base with Lg.mode = Lg.Open_loop 0.0 }));
  cb "non-positive think time rejected" true
    (Result.is_error (Lg.run { base with Lg.think = 0.0 }))

let run_against_server ~mode ~concurrency ~duration =
  (* the default test-server body cap (4 KiB) is below a predict_batch
     payload; raise it so every generated request is servable *)
  Test_serve.with_server ~workers:concurrency ~max_body:(256 * 1024) (fun (_, path) ->
      let opts =
        { (Lg.default_opts (Http.Unix_sock path)) with Lg.mode; concurrency; duration; seed = 7 }
      in
      match Lg.run opts with
      | Ok r -> r
      | Error e -> Alcotest.failf "loadgen failed: %s" e)

let test_closed_loop_report_math () =
  let r = run_against_server ~mode:Lg.Closed_loop ~concurrency:2 ~duration:1.0 in
  cb "sent some traffic" true (r.Lg.r_sent > 0);
  ci "every request answered" r.Lg.r_sent r.Lg.r_responses;
  ci "every response a 200" r.Lg.r_responses r.Lg.r_2xx;
  ci "no connect errors" 0 r.Lg.r_connect_errors;
  ci "no timeouts" 0 r.Lg.r_timeouts;
  ci "no protocol errors" 0 r.Lg.r_protocol_errors;
  ci "no 4xx" 0 r.Lg.r_4xx;
  ci "no 5xx" 0 r.Lg.r_5xx;
  ci "every response echoed its id" 0 r.Lg.r_id_mismatches;
  ci "errors_total agrees" 0 (Lg.errors_total r);
  cb "wall clock near the requested duration" true
    (r.Lg.r_wall_s >= 1.0 && r.Lg.r_wall_s < 5.0);
  Alcotest.(check (float 1e-9)) "achieved rps = responses / wall"
    (float_of_int r.Lg.r_responses /. r.Lg.r_wall_s)
    r.Lg.r_achieved_rps;
  (* the overall latency histogram saw exactly the responses *)
  (match r.Lg.r_latency with
  | None -> Alcotest.fail "no latency histogram"
  | Some h ->
      let s = Option.get (Metrics.hsnap_stats h) in
      ci "latency count = responses" r.Lg.r_responses s.Metrics.count;
      cb "latencies positive" true (s.Metrics.min > 0.0));
  (* per-endpoint histograms decompose the total *)
  let by_total =
    List.fold_left
      (fun acc (_, h) ->
        acc + match Metrics.hsnap_stats h with Some s -> s.Metrics.count | None -> 0)
      0 r.Lg.r_by_endpoint
  in
  ci "endpoint histograms sum to the total" r.Lg.r_responses by_total;
  cb "the default mix exercised predict" true (List.mem_assoc "predict" r.Lg.r_by_endpoint);
  (* percentiles are monotone in q *)
  let p q = Option.get (Lg.percentile r q) in
  cb "p50 <= p90 <= p99 <= p99.9" true (p 50.0 <= p 90.0 && p 90.0 <= p 99.0 && p 99.0 <= p 99.9);
  (* SLO checks against the live report *)
  let check key bound =
    match Lg.check_slo r { Lg.slo_key = key; slo_bound = bound } with
    | Some (actual, ok) -> (actual, ok)
    | None -> Alcotest.failf "SLO key %s unknown" key
  in
  cb "generous p99 passes" true (snd (check "p99" 60.0));
  cb "impossible p99 fails" false (snd (check "p99" 1e-9));
  cb "5xx=0 passes" true (snd (check "5xx" 0.0));
  cb "error_rate=0 passes" true (snd (check "error_rate" 0.0));
  cb "unreachable rps floor fails" false (snd (check "rps" 1e9));
  cb "rps actual is the achieved rate" true (fst (check "rps" 0.0) = r.Lg.r_achieved_rps);
  cb "unknown key is None" true
    (Lg.check_slo r { Lg.slo_key = "p12"; slo_bound = 1.0 } = None);
  (* the JSON report carries the same numbers *)
  let j = Lg.report_to_json r in
  cb "schema" true (Json.member "schema" j = Some (Json.Str "emc-loadgen-report/1"));
  cb "mode" true (Json.member "mode" j = Some (Json.Str "closed"));
  cb "sent" true (Json.member "sent" j = Some (Json.Int r.Lg.r_sent));
  cb "responses" true (Json.member "responses" j = Some (Json.Int r.Lg.r_responses));
  (match Json.member "latency_s" j with
  | Some lat ->
      cb "latency count in json" true (Json.member "count" lat = Some (Json.Int r.Lg.r_responses));
      cb "p99 in json" true
        (match Json.member "p99" lat with Some (Json.Float v) -> v = p 99.0 | _ -> false)
  | None -> Alcotest.fail "no latency_s in report json");
  match Json.member "errors" j with
  | Some errs -> cb "zero 5xx in json" true (Json.member "status_5xx" errs = Some (Json.Int 0))
  | None -> Alcotest.fail "no errors in report json"

let test_open_loop_pacing () =
  (* 80 rps for 1.5 s against an idle server: the seeded Poisson pacing
     should land within a loose factor of the target, and nothing
     should queue (no late arrivals to speak of, single-digit ms p99) *)
  let r = run_against_server ~mode:(Lg.Open_loop 80.0) ~concurrency:2 ~duration:1.5 in
  ci "all answered" r.Lg.r_sent r.Lg.r_responses;
  ci "no errors" 0 (Lg.errors_total r);
  cb "throughput within 2x of target" true
    (r.Lg.r_achieved_rps > 40.0 && r.Lg.r_achieved_rps < 160.0);
  let j = Lg.report_to_json r in
  cb "open mode in json" true (Json.member "mode" j = Some (Json.Str "open"));
  cb "target_rps in json" true (Json.member "target_rps" j = Some (Json.Float 80.0))

let test_think_mix_holds_connections () =
  (* a mix with think draws: the connections out-number the workers and
     sit silent holding their sockets between requests — the multiplexed
     daemon must keep serving all of them with zero errors (the old
     one-connection-per-worker loop starved everyone behind a thinker) *)
  Test_serve.with_server ~workers:1 (fun (_, path) ->
      let opts =
        { (Lg.default_opts (Http.Unix_sock path)) with
          Lg.concurrency = 4; duration = 1.0; seed = 11; think = 0.05;
          mix = [ ("predict", 4); ("healthz", 2); ("think", 3) ] }
      in
      match Lg.run opts with
      | Error e -> Alcotest.failf "loadgen failed: %s" e
      | Ok r ->
          cb "sent some traffic" true (r.Lg.r_sent > 0);
          ci "every request answered" r.Lg.r_sent r.Lg.r_responses;
          ci "no errors" 0 (Lg.errors_total r);
          ci "no id mismatches" 0 r.Lg.r_id_mismatches;
          cb "think draws stay out of the latency histogram" true
            (match r.Lg.r_latency with
            | Some h -> (
                match Metrics.hsnap_stats h with
                | Some s -> s.Metrics.count = r.Lg.r_responses
                | None -> r.Lg.r_responses = 0)
            | None -> r.Lg.r_responses = 0);
          cb "no think endpoint histogram" true
            (not (List.mem_assoc "think" r.Lg.r_by_endpoint)))

let check_clean r =
  cb "sent some traffic" true (r.Lg.r_sent > 0);
  ci "every request answered" r.Lg.r_sent r.Lg.r_responses;
  ci "no errors" 0 (Lg.errors_total r);
  ci "no id mismatches" 0 r.Lg.r_id_mismatches;
  cb "latency measured" true (r.Lg.r_latency <> None)

(* Every other live test uses a Unix socket; the README's recipes use
   TCP. *)
let test_serve_over_tcp () =
  let listen = Http.Tcp ("127.0.0.1", Test_serve.free_port ()) in
  Test_serve.with_server ~listen ~workers:2 ~max_body:(256 * 1024) (fun _ ->
      match Lg.run { (Lg.default_opts listen) with Lg.concurrency = 2; duration = 1.0; seed = 3 } with
      | Ok r -> check_clean r
      | Error e -> Alcotest.failf "loadgen failed: %s" e)

(* One connection: Par.map runs the generator in-process, and the report
   is as complete as a forked run's. *)
let test_one_connection_in_process () =
  Test_serve.with_server ~max_body:(256 * 1024) (fun (_, path) ->
      let opts =
        { (Lg.default_opts (Http.Unix_sock path)) with Lg.concurrency = 1; duration = 0.5; seed = 5 }
      in
      match Lg.run opts with
      | Ok r ->
          check_clean r;
          ci "one connection reported" 1 r.Lg.r_concurrency
      | Error e -> Alcotest.failf "loadgen failed: %s" e)

let suite =
  [
    Alcotest.test_case "slo parsing" `Quick test_slo_parsing;
    Alcotest.test_case "bad options are rejected before forking" `Quick test_opts_validation;
    Alcotest.test_case "closed-loop report math against a live daemon" `Quick
      test_closed_loop_report_math;
    Alcotest.test_case "open-loop pacing hits the target rate" `Quick test_open_loop_pacing;
    Alcotest.test_case "think mix holds connections open without errors" `Quick
      test_think_mix_holds_connections;
    Alcotest.test_case "serve and loadgen over TCP: zero errors" `Quick test_serve_over_tcp;
    Alcotest.test_case "one connection runs in-process" `Quick test_one_connection_in_process;
  ]
