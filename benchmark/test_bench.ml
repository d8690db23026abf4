(* Unit tests of the benchmark harness's own arithmetic and client. No
   simulation: these run in well under a second. *)

open Emc_bench
module J = Emc_obs.Json
module Http = Emc_serve.Http

let floats = Alcotest.(float 1e-12)

let test_percentile_rule () =
  let xs n = Array.init n float_of_int in
  Alcotest.(check (option floats)) "p50 needs 20 samples" None (Stat.percentile (xs 19) 50.0);
  Alcotest.(check bool) "p50 with 20" true (Stat.percentile (xs 20) 50.0 <> None);
  Alcotest.(check (option floats)) "p90 needs 100" None (Stat.percentile (xs 99) 90.0);
  Alcotest.(check bool) "p90 with 100" true (Stat.percentile (xs 100) 90.0 <> None);
  Alcotest.(check (option floats)) "p99 needs 1000" None (Stat.percentile (xs 999) 99.0);
  Alcotest.(check bool) "p99 with 1000" true (Stat.percentile (xs 1000) 99.0 <> None);
  Alcotest.(check (option floats)) "median of 0..20" (Some 10.0) (Stat.percentile (xs 21) 50.0)

let span id parent layer start stop =
  { Spans.id; parent; layer; name = layer; run = "t"; start; stop }

let test_self_times () =
  (* harness 0..10 holds sim 1..5 (holding compile 2..3) and regress 6..9 *)
  let spans =
    [ span 0 (-1) "harness" 0.0 10.0; span 1 0 "sim" 1.0 5.0; span 2 1 "compile" 2.0 3.0;
      span 3 0 "regress" 6.0 9.0; span 4 (-1) "sim" 20.0 22.0 ]
  in
  Alcotest.(check (list (pair string floats)))
    "self time per layer"
    [ ("compile", 1.0); ("harness", 3.0); ("regress", 3.0); ("sim", 5.0) ]
    (Spans.self_times spans);
  Alcotest.(check floats) "wall is the root spans" 12.0 (Spans.wall spans);
  Alcotest.(check floats) "self times sum to the wall" (Spans.wall spans)
    (List.fold_left (fun acc (_, v) -> acc +. v) 0.0 (Spans.self_times spans))

let test_recorder_nesting () =
  Spans.enabled := true;
  Spans.with_span ~layer:"a" "outer" (fun () ->
      Spans.with_span ~layer:"b" "inner" (fun () -> ());
      Spans.paused (fun () -> Spans.with_span ~layer:"c" "paused" (fun () -> ()));
      Spans.with_span ~layer:"b" "inner" (fun () -> ()));
  Spans.enabled := false;
  Spans.with_span ~layer:"c" "off" (fun () -> ());
  let sp = Spans.spans () in
  Alcotest.(check (list string)) "recorded while enabled" [ "outer"; "inner"; "inner" ]
    (List.map (fun s -> s.Spans.name) sp);
  let outer = List.hd sp in
  Alcotest.(check bool) "children point at the outer span" true
    (List.for_all (fun s -> s.Spans.parent = outer.Spans.id) (List.tl sp));
  match Spans.chrome sp with
  | J.List evs -> Alcotest.(check int) "one chrome event per span" 3 (List.length evs)
  | _ -> Alcotest.fail "chrome trace is not a list"

(* A stub HTTP server on one end of a socketpair: echoes the request id and
   body, and exits 1 if the client ever had a second request in flight.
   [others] are the descriptors the child must not keep open, or the
   client's close would never reach the stubs as EOF. *)
let stub ~others fd =
  match Unix.fork () with
  | 0 ->
      List.iter (fun o -> if o <> fd then try Unix.close o with Unix.Unix_error _ -> ()) others;
      let carry = ref "" in
      let rec serve () =
        match Http.read_request ~carry fd with
        | Ok req ->
            if !carry <> "" then Unix._exit 1;
            let id = Option.value ~default:"" (Http.header req "x-request-id") in
            Http.respond fd ~status:200 ~headers:[ ("X-Request-Id", id) ] req.Http.body;
            serve ()
        | Error _ -> Unix._exit 0
      in
      serve ()
  | pid ->
      Unix.close fd;
      pid

let test_closed_loop () =
  let pairs = Array.init 2 (fun _ -> Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0) in
  let others = List.concat_map (fun (c, s) -> [ c; s ]) (Array.to_list pairs) in
  let pids = Array.map (fun (_, server) -> stub ~others server) pairs in
  let next_conn = ref 0 and seq = ref 0 in
  let connect () =
    let client, _ = pairs.(!next_conn) in
    incr next_conn;
    Ok client
  in
  let next conn =
    incr seq;
    let id = Printf.sprintf "%d-%d" conn !seq in
    let body = "payload-" ^ id in
    { Closed_loop.bytes =
        Printf.sprintf "POST /x HTTP/1.1\r\nX-Request-Id: %s\r\nContent-Length: %d\r\n\r\n%s" id
          (String.length body) body;
      tag = (id, body) }
  in
  let replies = Array.make 2 0 and bad = ref 0 in
  let on_reply (o : _ Closed_loop.outcome) =
    let id, body = o.tag in
    match o.reply with
    | Ok resp
      when Http.response_header resp "x-request-id" = Some id && resp.Http.resp_body = body
           && o.latency >= 0.0 ->
        replies.(o.conn) <- replies.(o.conn) + 1
    | _ -> incr bad
  in
  Closed_loop.run ~conns:2 ~connect ~keep_alive:true ~until:(Clock.now () +. 0.2) ~timeout:2.0
    ~next ~on_reply;
  Alcotest.(check int) "no bad replies" 0 !bad;
  Alcotest.(check bool) "both connections served" true (replies.(0) > 10 && replies.(1) > 10);
  Alcotest.(check int) "one connect per keep-alive connection" 2 !next_conn;
  Array.iter
    (fun pid ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "stub saw a pipelined request: the loop is not closed")
    pids

let test_report_roundtrip () =
  let r =
    { Report.correct = true; attempted = 1234; failed = 0;
      metrics =
        [ { Report.name = "op_p50_ms"; value = 1.2034; unit_ = "ms" };
          { Report.name = "ops_per_s"; value = 3.0; unit_ = "1/s" };
          { Report.name = "tiny"; value = 1e-300; unit_ = "s" } ] }
  in
  let back j = Result.get_ok (Report.of_json (J.parse_exn (J.to_string j))) in
  Alcotest.(check bool) "result survives the JSON text round trip" true (back (Report.to_json r) = r);
  let rc = { Report.workload = "serve-predict"; seed = 8; traced = false; result = r } in
  Alcotest.(check bool) "record round trip" true
    (Result.get_ok (Report.record_of_json (J.parse_exn (J.to_string (Report.record_to_json rc)))) = rc);
  Alcotest.(check bool) "missing keys are an error" true
    (Result.is_error (Report.of_json (J.parse_exn "{\"correct\":true}")))

let test_compare () =
  let spec = { Report.s_name = "op_p50_ms"; s_unit = "ms"; lower_better = true; bound = Some 0.1 } in
  let rec_ v =
    { Report.workload = "w"; seed = 1; traced = false;
      result =
        { Report.correct = true; attempted = 1; failed = 0;
          metrics = [ { Report.name = "op_p50_ms"; value = v; unit_ = "ms" } ] } }
  in
  let regressed a b =
    match Report.compare_sets [ spec ] (List.map rec_ a) (List.map rec_ b) with
    | [ row ] -> row.Report.regressed
    | _ -> Alcotest.fail "expected one row"
  in
  Alcotest.(check bool) "within the bound" false (regressed [ 10.0; 10.0; 10.0 ] [ 10.5; 10.9; 10.8 ]);
  Alcotest.(check bool) "beyond the bound" true (regressed [ 10.0; 10.0; 10.0 ] [ 11.5; 11.6; 11.2 ]);
  Alcotest.(check bool) "better is never a regression" false (regressed [ 10.0 ] [ 5.0 ])

let test_digest_stability () =
  (* md5 of "0x1p+0,-0x0p+0,0x1.999999999999ap-4,|nan,|": golden.json
     digests stay valid only while this encoding does not change *)
  Alcotest.(check string) "fixed digest" "6161e875e0948828933a24826622cda1"
    (Bits.of_floats [ [| 1.0; -0.0; 0.1 |]; [| nan |] ]);
  Alcotest.(check bool) "-0.0 and 0.0 differ" true (Bits.of_floats [ [| -0.0 |] ] <> Bits.of_floats [ [| 0.0 |] ]);
  Alcotest.(check bool) "array boundaries count" true
    (Bits.of_floats [ [| 1.0 |]; [| 2.0 |] ] <> Bits.of_floats [ [| 1.0; 2.0 |] ])

let test_speed () =
  let sp = Speed.create () in
  Alcotest.(check floats) "nothing sampled, nothing rescaled" 1.0 (Speed.long_factor sp 5.0);
  Speed.sample ~n:2 sp;
  Alcotest.(check (list int)) "one entry per sample" [ 2; 2; 2 ]
    (List.map (fun s -> s.Stat.len) [ sp.Speed.ends; sp.Speed.samples; sp.Speed.pieces ]);
  Alcotest.(check bool) "in the order taken" true (sp.Speed.ends.Stat.data.(0) < sp.Speed.ends.Stat.data.(1));
  (* bursts of three samples ending at 1-3, 10-12 and 20-22 s; sample i
     took i+1 seconds and its median piece i+1 us *)
  let sp = Speed.create () in
  List.iteri
    (fun i e ->
      Stat.push sp.Speed.ends e;
      Stat.push sp.Speed.samples (float_of_int (i + 1));
      Stat.push sp.Speed.pieces (float_of_int (i + 1) *. 1e-6))
    [ 1.0; 2.0; 3.0; 10.0; 11.0; 12.0; 20.0; 21.0; 22.0 ];
  let scaled f start = Speed.nominal_sample /. f sp start in
  Alcotest.(check floats) "the bursts before and after" 6.5 (scaled Speed.long_factor 12.5);
  Alcotest.(check floats) "at the start, the first burst" 2.0 (scaled Speed.long_factor 0.5);
  Alcotest.(check floats) "at the end, the last burst" 8.0 (scaled Speed.long_factor 30.0);
  Alcotest.(check floats) "pieces by the same window" 6.5e-6
    (Speed.nominal_piece /. Speed.short_factor sp 12.5)

let () =
  Alcotest.run "benchmark"
    [ ( "harness",
        [ Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          Alcotest.test_case "self time on nested spans" `Quick test_self_times;
          Alcotest.test_case "span recorder nesting" `Quick test_recorder_nesting;
          Alcotest.test_case "closed loop against a socketpair stub" `Quick test_closed_loop;
          Alcotest.test_case "report JSON round trip" `Quick test_report_roundtrip;
          Alcotest.test_case "compare flags regressions" `Quick test_compare;
          Alcotest.test_case "digest stability" `Quick test_digest_stability;
          Alcotest.test_case "speed samples and rescaling" `Quick test_speed ] ) ]
