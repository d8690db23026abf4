(** The distributed measurement subsystem, end to end: address parsing,
    bit-exact hex-float transport, the content-addressed result store and
    the worker daemon as real forked processes on temp Unix sockets, the
    coordinator's bit-identity contract against a sequential in-process
    run (values and [measure.*] counters), crash retry against dead and
    connection-dropping workers, run-journal resume with zero
    re-simulation, and the [emc cache] maintenance pass. *)

open Emc_core
module Fleet = Emc_fleet.Fleet
module Json = Emc_obs.Json
module Metrics = Emc_obs.Metrics
module Http = Emc_serve.Http

let cb = Alcotest.(check bool)
let ci = Alcotest.(check int)
let cs = Alcotest.(check string)

(* the coordinator client path can hit closed sockets *)
let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let counter name = Option.value ~default:0 (Metrics.counter_value name)

(* ---------------- addresses ---------------- *)

let test_parse_addr () =
  cb "host:port" true (Http.parse_addr "box1:9001" = Ok (Fleet.Tcp ("box1", 9001)));
  cb ":port is localhost" true
    (Http.parse_addr ":9001" = Ok (Fleet.Tcp ("127.0.0.1", 9001)));
  cb "a path is a unix socket" true
    (Http.parse_addr "/tmp/w.sock" = Ok (Fleet.Unix_sock "/tmp/w.sock"));
  cb "surrounding space trimmed" true
    (Http.parse_addr " box1:80 " = Ok (Fleet.Tcp ("box1", 80)));
  List.iter
    (fun bad ->
      cb (Printf.sprintf "%S rejected" bad) true
        (match Http.parse_addr bad with Error _ -> true | Ok _ -> false))
    [ ""; "box1"; "box1:"; "box1:nope"; "box1:0"; "box1:70000" ];
  match Fleet.parse_fleet "a:1, b:2 ,/tmp/w.sock" with
  | Ok
      [ Fleet.Worker (Fleet.Tcp ("a", 1)); Fleet.Worker (Fleet.Tcp ("b", 2));
        Fleet.Worker (Fleet.Unix_sock "/tmp/w.sock") ] ->
      ()
  | Ok _ -> Alcotest.fail "parse_fleet: wrong sources"
  | Error e -> Alcotest.failf "parse_fleet: error %s" e

let test_parse_sources () =
  (* the @ prefix marks an elastic membership source (a store address) *)
  cb "@addr is a members source" true
    (Fleet.parse_source "@box1:9001" = Ok (Fleet.Members (Fleet.Tcp ("box1", 9001))));
  cb "@path is a members source" true
    (Fleet.parse_source " @/run/store.sock " = Ok (Fleet.Members (Fleet.Unix_sock "/run/store.sock")));
  cb "plain addr is a fixed worker" true
    (Fleet.parse_source "box1:9001" = Ok (Fleet.Worker (Fleet.Tcp ("box1", 9001))));
  cb "bare @ rejected" true
    (match Fleet.parse_source "@" with Error _ -> true | Ok _ -> false);
  match Fleet.parse_fleet "a:1,@b:2" with
  | Ok [ Fleet.Worker (Fleet.Tcp ("a", 1)); Fleet.Members (Fleet.Tcp ("b", 2)) ] -> ()
  | Ok _ -> Alcotest.fail "mixed spec: wrong sources"
  | Error e -> Alcotest.failf "mixed spec: error %s" e

let test_parse_fleet_errors () =
  cb "empty spec rejected" true
    (match Fleet.parse_fleet " , ," with Error _ -> true | Ok _ -> false);
  cb "one bad entry poisons the list" true
    (match Fleet.parse_fleet "a:1,bogus" with Error _ -> true | Ok _ -> false)

(* ---------------- pure scheduler pieces ---------------- *)

let test_chunk_plan () =
  let cover what plan n =
    (* every index covered exactly once, no empty chunks *)
    let seen = Array.make n 0 in
    List.iter
      (fun (start, len) ->
        cb (what ^ ": chunk non-empty") true (len > 0);
        for i = start to start + len - 1 do
          seen.(i) <- seen.(i) + 1
        done)
      plan;
    Array.iteri (fun i c -> ci (Printf.sprintf "%s: index %d covered once" what i) 1 c) seen
  in
  cover "n=1" (Fleet.chunk_plan ~chunk:0 ~nworkers:4 ~n:1) 1;
  cover "n<nworkers" (Fleet.chunk_plan ~chunk:0 ~nworkers:16 ~n:5) 5;
  cover "chunk>n" (Fleet.chunk_plan ~chunk:100 ~nworkers:2 ~n:7) 7;
  cover "prime n, explicit chunk" (Fleet.chunk_plan ~chunk:3 ~nworkers:2 ~n:13) 13;
  cover "auto, large" (Fleet.chunk_plan ~chunk:0 ~nworkers:3 ~n:997) 997;
  cover "zero workers still plans" (Fleet.chunk_plan ~chunk:0 ~nworkers:0 ~n:9) 9;
  cb "n=0 is an empty plan" true (Fleet.chunk_plan ~chunk:0 ~nworkers:4 ~n:0 = []);
  ci "explicit chunk honored" 5
    (List.length (Fleet.chunk_plan ~chunk:2 ~nworkers:1 ~n:10));
  cb "negative chunk fails loudly" true
    (match Fleet.chunk_plan ~chunk:(-1) ~nworkers:1 ~n:4 with
    | exception Fleet.Fleet_error _ -> true
    | _ -> false)

let test_next_wake () =
  let cf = Alcotest.(check (float 1e-9)) in
  (* nothing to wait for: a long fallback, not a busy tick *)
  cf "no events sleeps long" 60.0
    (Fleet.next_wake ~now:1000.0 ~read_timeout:600.0 ~steal_after:30.0 []);
  (* one running head: wake exactly at its steal timer *)
  cf "sleeps to the steal timer" 25.0
    (Fleet.next_wake ~now:1000.0 ~read_timeout:600.0 ~steal_after:30.0 [ 995.0 ]);
  (* steal timer already past: next event is the read deadline, not a
     near-zero sleep clamped against the stale steal timer *)
  cf "past steal timer falls through to the deadline" 10.0
    (Fleet.next_wake ~now:1000.0 ~read_timeout:50.0 ~steal_after:30.0 [ 960.0 ]);
  (* a nearer membership poll wins *)
  cf "membership poll caps the sleep" 0.5
    (Fleet.next_wake ~now:1000.0 ~read_timeout:600.0 ~steal_after:30.0 ~poll_at:1000.5
       [ 995.0 ]);
  (* everything due: short wake so the caller handles it, never 0 *)
  cb "due events wake shortly but not busily" true
    (let t =
       Fleet.next_wake ~now:2000.0 ~read_timeout:600.0 ~steal_after:30.0 ~poll_at:1999.0
         [ 100.0 ]
     in
     t > 0.0 && t <= 0.05);
  (* clamped below 60 even for far-future deadlines *)
  cf "clamped to 60s" 60.0
    (Fleet.next_wake ~now:0.0 ~read_timeout:86400.0 ~steal_after:86400.0 [ 0.0 ])

(* ---------------- hex-float transport ---------------- *)

let test_hex_float_roundtrip () =
  (* the wire format for every measured value and design-point coordinate:
     a %h literal through JSON must come back bit-identical, including
     values no decimal round trip preserves *)
  List.iter
    (fun f ->
      let j =
        match Json.parse (Json.to_string (Json.Obj [ ("v", Json.hex f) ])) with
        | Ok j -> j
        | Error e -> Alcotest.failf "reparse failed: %s" e
      in
      match Option.bind (Json.member "v" j) Json.hex_of with
      | Some g ->
          Alcotest.(check int64)
            (Printf.sprintf "%h survives the wire" f)
            (Int64.bits_of_float f) (Int64.bits_of_float g)
      | None -> Alcotest.failf "%h did not decode" f)
    [ 0.0; -0.0; 1.0; 0.1; Float.pi; 1.0 /. 3.0; 1e300; -1e-300; 4e-324;
      Float.max_float; Float.min_float; 9007199254740993.0 ]

(* ---------------- daemon scaffolding ---------------- *)

let sock_path tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "emc_fleet_%s_%d_%d.sock" tag (Unix.getpid ()) (Random.int 1_000_000))

let fork_daemon run =
  match Unix.fork () with
  | 0 ->
      (* the child inherits this test process's metrics registry; a real
         daemon starts from zero, so its /metrics must too *)
      Metrics.reset ();
      (try run () with _ -> Unix._exit 1);
      Unix._exit 0
  | pid -> pid

let wait_sock path = Test_serve.wait_up (Fleet.Unix_sock path)

let stop_daemon pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let with_daemons specs f =
  let daemons = List.map (fun run -> let path = sock_path "d" in (path, fork_daemon (run path))) specs in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (_, pid) -> stop_daemon pid) daemons)
    (fun () ->
      List.iter (fun (path, _) -> wait_sock path) daemons;
      f (List.map fst daemons))

let with_worker f =
  with_daemons
    [ (fun path () -> Fleet.run_worker ~listen:(Fleet.Unix_sock path) ()) ]
    (function [ path ] -> f path | _ -> assert false)

(* ---------------- store daemon ---------------- *)

let rpc path ~meth ~target ?body () =
  match Http.call (Fleet.Unix_sock path) ~meth ~path:target ?body () with
  | Ok r -> (r.Http.status, r.Http.resp_body)
  | Error e -> Alcotest.failf "%s %s: %s" meth target (Http.error_to_string e)

let json_of body =
  match Json.parse (String.trim body) with
  | Ok j -> j
  | Error e -> Alcotest.failf "not JSON (%s): %S" e body

let test_store_daemon () =
  let file = Filename.temp_file "emc_store" ".jsonl" in
  Sys.remove file;
  Fun.protect ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
  @@ fun () ->
  let with_store f =
    with_daemons
      [ (fun path () -> Fleet.run_store ~file ~listen:(Fleet.Unix_sock path) ()) ]
      (function [ path ] -> f path | _ -> assert false)
  in
  with_store (fun path ->
      (* put two entries; re-putting one is deduplicated *)
      let put body = rpc path ~meth:"POST" ~target:"/put" ~body () in
      let status, body =
        put {|{"entries":[{"k":"ka","v":"0x1.8p+0"},{"k":"kb","v":"0x1.2p+1"}]}|}
      in
      ci "put status" 200 status;
      cb "two added" true (Json.member "added" (json_of body) = Some (Json.Int 2));
      let _, body = put {|{"entries":[{"k":"ka","v":"0x1.8p+0"}]}|} in
      cb "duplicate put adds nothing" true
        (Json.member "added" (json_of body) = Some (Json.Int 0));
      (* lookup returns only the hits *)
      let status, body =
        rpc path ~meth:"POST" ~target:"/lookup" ~body:{|{"keys":["ka","missing","kb"]}|} ()
      in
      ci "lookup status" 200 status;
      (match Json.member "results" (json_of body) with
      | Some (Json.Obj kvs) ->
          ci "two hits" 2 (List.length kvs);
          cb "ka value exact" true
            (Option.bind (List.assoc_opt "ka" kvs) Json.hex_of = Some 1.5)
      | _ -> Alcotest.failf "no results in %S" body);
      ci "healthz" 200 (fst (rpc path ~meth:"GET" ~target:"/healthz" ()));
      ci "unknown endpoint 404" 404 (fst (rpc path ~meth:"GET" ~target:"/bogus" ())));
  (* a restarted store reloads its file: the table survives the process *)
  with_store (fun path ->
      let _, body =
        rpc path ~meth:"POST" ~target:"/lookup" ~body:{|{"keys":["ka","kb"]}|} ()
      in
      match Json.member "results" (json_of body) with
      | Some (Json.Obj kvs) -> ci "persisted across restart" 2 (List.length kvs)
      | _ -> Alcotest.failf "no results in %S" body)

let member_addrs path =
  match Fleet.members (Fleet.Unix_sock path) with
  | Ok ms -> List.map fst ms
  | Error e -> Alcotest.failf "members: %s" e

let test_store_membership () =
  with_daemons
    [ (fun path () -> Fleet.run_store ~listen:(Fleet.Unix_sock path) ()) ]
  @@ function
  | [ path ] ->
      let register ?(ttl = "0x1p+3") addr =
        rpc path ~meth:"POST" ~target:"/register"
          ~body:(Printf.sprintf {|{"addr":%S,"ttl":%S}|} addr ttl)
          ()
      in
      ci "empty table" 0 (List.length (member_addrs path));
      let status, body = register "w1:9001" in
      ci "register ok" 200 status;
      cb "one member" true (Json.member "members" (json_of body) = Some (Json.Int 1));
      let _, body = register "w2:9002" in
      cb "two members" true (Json.member "members" (json_of body) = Some (Json.Int 2));
      (* re-registering is the heartbeat: still two *)
      let _, body = register "w1:9001" in
      cb "heartbeat does not duplicate" true
        (Json.member "members" (json_of body) = Some (Json.Int 2));
      Alcotest.(check (list string)) "members listed sorted" [ "w1:9001"; "w2:9002" ]
        (member_addrs path);
      (* explicit deregistration removes immediately *)
      let status, body =
        rpc path ~meth:"POST" ~target:"/deregister" ~body:{|{"addr":"w1:9001"}|} ()
      in
      ci "deregister ok" 200 status;
      cb "deregister reports removal" true
        (Json.member "removed" (json_of body) = Some (Json.Bool true));
      Alcotest.(check (list string)) "w1 gone" [ "w2:9002" ] (member_addrs path);
      (* a missed heartbeat ages the worker out after its TTL *)
      let status, _ = register ~ttl:"0x1.999999999999ap-3" "w3:9003" (* 0.2s *) in
      ci "short-ttl register ok" 200 status;
      cb "w3 visible before its TTL" true (List.mem "w3:9003" (member_addrs path));
      ignore (Unix.select [] [] [] 0.35);
      cb "w3 aged out" false (List.mem "w3:9003" (member_addrs path));
      cb "w2's longer TTL survives" true (List.mem "w2:9002" (member_addrs path));
      (* garbage registrations are rejected, not stored *)
      ci "missing addr rejected" 400
        (fst (rpc path ~meth:"POST" ~target:"/register" ~body:{|{"ttl":"0x1p+0"}|} ()));
      ci "absurd ttl rejected" 400
        (fst (register ~ttl:"0x1p+30" "w4:9004"))
  | _ -> assert false

(* ---------------- measurement through the fleet ---------------- *)

let small_scale jobs = { Scale.tiny with Scale.workload_scale = 0.05; jobs }

let design_points n =
  let rng = Emc_util.Rng.create 123 in
  Emc_doe.Doe.lhs rng Params.space_all n

let check_counters what (a : Measure.t) (b : Measure.t) =
  ci (what ^ ": simulations") a.Measure.simulations b.Measure.simulations;
  ci (what ^ ": result hits") a.Measure.result_hits b.Measure.result_hits;
  ci (what ^ ": compiles") a.Measure.compiles b.Measure.compiles;
  ci (what ^ ": binary hits") a.Measure.binary_hits b.Measure.binary_hits

(* Measure a batch locally and through the fleet at [addrs], check the two
   agree bit for bit and counter for counter, and return the fleet-attached
   Measure. *)
let measure_through ?(options = { Fleet.default_options with Fleet.chunk = 3 })
    ?(before_fleet = fun () -> ()) addrs =
  let w = Emc_workloads.Registry.find "mcf" in
  let variant = Emc_workloads.Workload.Train in
  let points = design_points 7 in
  (* duplicate a point so the dedup/result-hit path is exercised too *)
  let points = Array.append points [| points.(0) |] in
  let m_local = Measure.create (small_scale 1) in
  let y_local = Measure.cycles_coded_many m_local w ~variant points in
  let e_local = Measure.respond_coded_many ~response:Measure.Energy m_local w ~variant points in
  let m_fleet = Measure.create (small_scale 1) in
  Fleet.attach ~options m_fleet
    (List.map
       (fun a ->
         match Fleet.parse_source a with Ok s -> s | Error e -> failwith e)
       addrs);
  before_fleet ();
  let y_fleet = Measure.cycles_coded_many m_fleet w ~variant points in
  let e_fleet = Measure.respond_coded_many ~response:Measure.Energy m_fleet w ~variant points in
  Alcotest.(check (array (float 0.0))) "cycles bit-identical to jobs=1" y_local y_fleet;
  Alcotest.(check (array (float 0.0))) "energy bit-identical to jobs=1" e_local e_fleet;
  check_counters "fleet = local" m_local m_fleet;
  m_fleet

let run_through ?options ?before_fleet addrs =
  ignore (measure_through ?options ?before_fleet addrs)

let test_fleet_bit_identity () = with_worker (fun path -> run_through [ path ])

(* The coordinator counts the binaries its workers build without building
   any: every entry of its memo is a lazy build nothing forced, and the
   counters still equal the local run's. *)
let test_coordinator_builds_nothing () =
  with_worker (fun path ->
      let m = measure_through [ path ] in
      cb "binaries requested" true (Hashtbl.length m.Measure.binaries > 0);
      Hashtbl.iter
        (fun key p -> cb (Printf.sprintf "%s not built" key) false (Lazy.is_val p))
        m.Measure.binaries)

let test_fleet_no_spurious_dispatches () =
  (* a healthy run dispatches each chunk exactly once: no retries, no
     steals, no extra dispatches from a coordinator waking early. 8 points
     at chunk 3 over two batches (cycles then energy; energy is all result
     hits so it dispatches nothing) = 3 chunks. *)
  with_worker (fun path ->
      let d0 = counter "fleet.dispatched" in
      let r0 = counter "fleet.retried" in
      let s0 = counter "fleet.steals" in
      run_through [ path ];
      ci "each chunk dispatched exactly once" (d0 + 3) (counter "fleet.dispatched");
      ci "nothing retried" r0 (counter "fleet.retried");
      ci "nothing stolen" s0 (counter "fleet.steals"))

let test_fleet_pipelined_depth () =
  (* depth 3 on a single worker: chunk 2 over 8 points = 4 chunks, so the
     pipeline genuinely queues, and results must stay bit-identical *)
  with_worker (fun path ->
      run_through
        ~options:{ Fleet.default_options with Fleet.chunk = 2; Fleet.depth = 3 }
        [ path ])

let test_fleet_pipelined_two_workers () =
  with_daemons
    [ (fun path () -> Fleet.run_worker ~listen:(Fleet.Unix_sock path) ());
      (fun path () -> Fleet.run_worker ~listen:(Fleet.Unix_sock path) ()) ]
    (run_through ~options:{ Fleet.default_options with Fleet.chunk = 1; Fleet.depth = 4 })

let test_fleet_two_workers () =
  with_daemons
    [ (fun path () -> Fleet.run_worker ~listen:(Fleet.Unix_sock path) ());
      (fun path () -> Fleet.run_worker ~listen:(Fleet.Unix_sock path) ()) ]
    run_through

let test_fleet_retries_dead_worker () =
  (* first address is a socket nobody listens on: every dispatch to it
     fails at connect, the chunk is retried on the live worker, and the
     result is still bit-identical *)
  let failures0 = counter "fleet.worker_failures" in
  let retried0 = counter "fleet.retried" in
  with_worker (fun live -> run_through [ sock_path "dead"; live ]);
  cb "dead worker counted" true (counter "fleet.worker_failures" > failures0);
  cb "its chunk was retried" true (counter "fleet.retried" > retried0)

let test_fleet_retries_dropped_connection () =
  (* a worker that accepts and immediately drops the connection: the
     coordinator sees a closed response stream mid-chunk (not a connect
     failure) and must retry elsewhere *)
  let flaky = sock_path "flaky" in
  let pid =
    fork_daemon (fun () ->
        let lsock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind lsock (Unix.ADDR_UNIX flaky);
        Unix.listen lsock 8;
        while true do
          match Unix.accept lsock with
          | fd, _ -> ( try Unix.close fd with Unix.Unix_error _ -> ())
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        done)
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      if Sys.file_exists flaky then Sys.remove flaky)
  @@ fun () ->
  wait_sock flaky;
  let failures0 = counter "fleet.worker_failures" in
  with_worker (fun live -> run_through [ flaky; live ]);
  cb "dropped connection counted as worker failure" true
    (counter "fleet.worker_failures" > failures0)

let test_all_workers_dead () =
  let m = Measure.create (small_scale 1) in
  Fleet.attach m
    [ Fleet.Worker (Fleet.Unix_sock (sock_path "dead1"));
      Fleet.Worker (Fleet.Unix_sock (sock_path "dead2")) ];
  let w = Emc_workloads.Registry.find "mcf" in
  match Measure.cycles_coded_many m w ~variant:Emc_workloads.Workload.Train (design_points 3) with
  | _ -> Alcotest.fail "expected Fleet_error"
  | exception Fleet.Fleet_error msg ->
      cb (Printf.sprintf "failure names the problem (%s)" msg) true (String.length msg > 0)

let test_coordinator_feeds_store () =
  (* run once through a store-less worker with the store as a second
     source: the coordinator puts every chunk's results. A fresh
     coordinator on a fresh worker (empty memo) then finds everything in
     the store: nothing dispatched, zero simulations, still bit-identical *)
  let store_file = Filename.temp_file "emc_store2" ".jsonl" in
  Sys.remove store_file;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists store_file then Sys.remove store_file)
  @@ fun () ->
  let store_path = sock_path "store" in
  let store_pid =
    fork_daemon (fun () ->
        Fleet.run_store ~file:store_file ~listen:(Fleet.Unix_sock store_path) ())
  in
  Fun.protect ~finally:(fun () -> stop_daemon store_pid)
  @@ fun () ->
  wait_sock store_path;
  let w = Emc_workloads.Registry.find "gzip" in
  let variant = Emc_workloads.Workload.Train in
  let points = design_points 4 in
  let measure path =
    let m = Measure.create (small_scale 1) in
    Fleet.attach m
      [ Fleet.Worker (Fleet.Unix_sock path); Fleet.Members (Fleet.Unix_sock store_path) ];
    Measure.cycles_coded_many m w ~variant points
  in
  let puts0 = counter "fleet.store_puts" in
  let y1 = with_worker measure in
  cb "store persisted results" true (Sys.file_exists store_file);
  with_worker (fun path ->
      let dispatched0 = counter "fleet.dispatched" in
      let y2 = measure path in
      Alcotest.(check (array (float 0.0))) "store-served run bit-identical" y1 y2;
      ci "nothing dispatched" dispatched0 (counter "fleet.dispatched");
      ci "every response of every point put once" (puts0 + 12) (counter "fleet.store_puts");
      (* the fresh worker's own /metrics must report zero simulator runs *)
      let _, metrics = rpc path ~meth:"GET" ~target:"/metrics" () in
      let has sub =
        let n = String.length metrics and m = String.length sub in
        let rec go i = i + m <= n && (String.sub metrics i m = sub || go (i + 1)) in
        go 0
      in
      cb "fresh worker simulated nothing" true (has "emc_measure_simulations 0"))

(* ---------------- elastic membership ---------------- *)

let kill_daemon pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let rm_f p = if Sys.file_exists p then Sys.remove p

let elastic_options =
  { Fleet.default_options with Fleet.chunk = 2; Fleet.poll_interval = 0.1 }

let test_elastic_join_mid_run () =
  let store_path = sock_path "estore" in
  let store_pid =
    fork_daemon (fun () -> Fleet.run_store ~listen:(Fleet.Unix_sock store_path) ())
  in
  let worker_sock = sock_path "ejoin" in
  let worker_pid = ref None in
  Fun.protect
    ~finally:(fun () ->
      Option.iter stop_daemon !worker_pid;
      stop_daemon store_pid;
      List.iter rm_f [ worker_sock; worker_sock ^ ".pid" ])
  @@ fun () ->
  wait_sock store_path;
  let joined0 = counter "fleet.workers_joined" in
  let dispatched0 = counter "fleet.dispatched" in
  (* the worker comes up only after the coordinator is already waiting on
     an empty membership table: it must be discovered by a poll mid-run
     and handed the pending chunks *)
  let spawn_worker_later () =
    worker_pid :=
      Some
        (fork_daemon (fun () ->
             ignore (Unix.select [] [] [] 0.3);
             Fleet.run_worker ~register:(Fleet.Unix_sock store_path) ~heartbeat:0.2
               ~listen:(Fleet.Unix_sock worker_sock) ()))
  in
  run_through ~options:elastic_options ~before_fleet:spawn_worker_later [ "@" ^ store_path ];
  cb "the worker joined via membership" true (counter "fleet.workers_joined" > joined0);
  cb "the joined worker received chunks" true (counter "fleet.dispatched" > dispatched0);
  (* the store now holds every result: a second campaign through the same
     elastic fleet pre-filters everything and dispatches nothing *)
  let prefilled0 = counter "fleet.store_prefilled" in
  let dispatched1 = counter "fleet.dispatched" in
  run_through ~options:elastic_options [ "@" ^ store_path ];
  ci "all unique points served by the pre-filter" (prefilled0 + 7)
    (counter "fleet.store_prefilled");
  ci "nothing dispatched on the warm campaign" dispatched1 (counter "fleet.dispatched")

let test_elastic_drain_mid_run () =
  let store_path = sock_path "dstore" in
  let store_pid =
    fork_daemon (fun () -> Fleet.run_store ~listen:(Fleet.Unix_sock store_path) ())
  in
  let w1 = sock_path "edrain1" and w2 = sock_path "edrain2" in
  let worker sock =
    fork_daemon (fun () ->
        Fleet.run_worker ~register:(Fleet.Unix_sock store_path) ~heartbeat:0.1
          ~listen:(Fleet.Unix_sock sock) ())
  in
  let p1 = worker w1 in
  let p2 = worker w2 in
  Fun.protect
    ~finally:(fun () ->
      stop_daemon p1;
      stop_daemon p2;
      stop_daemon store_pid;
      List.iter rm_f [ w1; w1 ^ ".pid"; w2; w2 ^ ".pid" ])
  @@ fun () ->
  wait_sock store_path;
  wait_sock w1;
  wait_sock w2;
  (* SIGTERM = drain: a forked orchestrator signals w1 shortly after the
     batch starts; it finishes in-flight work, deregisters and exits,
     and every chunk still completes — zero lost work, bytes identical *)
  let drainer = ref None in
  let drain_w1_later () =
    drainer :=
      Some
        (match Unix.fork () with
        | 0 ->
            ignore (Unix.select [] [] [] 0.1);
            (try Unix.kill p1 Sys.sigterm with Unix.Unix_error _ -> ());
            Unix._exit 0
        | pid -> pid)
  in
  run_through
    ~options:{ elastic_options with Fleet.chunk = 1 }
    ~before_fleet:drain_w1_later [ "@" ^ store_path ];
  Option.iter (fun pid -> try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()) !drainer;
  (* once drained, w1 is out of the members table; w2 is still there *)
  stop_daemon p1;
  let ms = member_addrs store_path in
  cb "drained worker deregistered" false (List.mem w1 ms);
  cb "surviving worker still registered" true (List.mem w2 ms)

let test_registered_worker_death () =
  let store_path = sock_path "kstore" in
  let store_pid =
    fork_daemon (fun () -> Fleet.run_store ~listen:(Fleet.Unix_sock store_path) ())
  in
  Fun.protect ~finally:(fun () -> stop_daemon store_pid)
  @@ fun () ->
  wait_sock store_path;
  (* a registration whose worker is already dead (long TTL, nobody
     listening): the coordinator must discover it, fail it at connect,
     and retry its chunks on the live worker — bit-identically *)
  let ghost = sock_path "ghost" in
  ci "ghost registered" 200
    (fst
       (rpc store_path ~meth:"POST" ~target:"/register"
          ~body:(Printf.sprintf {|{"addr":%S,"ttl":"0x1p+6"}|} ghost)
          ()));
  let live = sock_path "klive" in
  let p =
    fork_daemon (fun () ->
        Fleet.run_worker ~register:(Fleet.Unix_sock store_path) ~heartbeat:0.1
          ~listen:(Fleet.Unix_sock live) ())
  in
  Fun.protect ~finally:(fun () -> kill_daemon p; List.iter rm_f [ live; live ^ ".pid" ])
  @@ fun () ->
  wait_sock live;
  let failures0 = counter "fleet.worker_failures" in
  let retried0 = counter "fleet.retried" in
  run_through ~options:elastic_options [ "@" ^ store_path ];
  cb "dead registered worker failed" true (counter "fleet.worker_failures" > failures0);
  cb "its chunks were retried" true (counter "fleet.retried" > retried0);
  (* SIGKILL the live worker: no deregistration runs, but its heartbeater
     child notices the orphaning and exits, so the registration ages out
     of /members within a TTL instead of living forever *)
  Unix.kill p Sys.sigkill;
  (try ignore (Unix.waitpid [] p) with Unix.Unix_error _ -> ());
  cb "killed worker still listed within its TTL" true
    (List.mem live (member_addrs store_path));
  ignore (Unix.select [] [] [] 0.8);
  cb "SIGKILLed worker aged out of membership" false
    (List.mem live (member_addrs store_path));
  cb "age-out is heartbeat-driven: the long-TTL ghost remains" true
    (List.mem ghost (member_addrs store_path))

(* The shared bind replaces a stale socket, never anything else: a store
   asked to listen where a regular file sits fails, and the file
   survives. *)
let test_store_refuses_regular_file () =
  let path = sock_path "notasock" in
  Out_channel.with_open_text path (fun oc -> output_string oc "precious\n");
  Fun.protect ~finally:(fun () -> rm_f path) @@ fun () ->
  let pid = fork_daemon (fun () -> Fleet.run_store ~listen:(Fleet.Unix_sock path) ()) in
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec exit_status () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        ignore (Unix.select [] [] [] 0.05);
        exit_status ()
    | 0, _ ->
        kill_daemon pid;
        Alcotest.fail "the store started over a regular file"
    | _, status -> status
  in
  cb "the store refuses to start" true (exit_status () = Unix.WEXITED 1);
  cs "the file survives" "precious\n" (In_channel.with_open_text path In_channel.input_all)

(* Eight keep-alive clients left idle after one request each cannot pin
   the store: a worker heartbeating every 0.5 s (TTL 1.5 s) stays listed
   in /members for 3 s straight. *)
let test_idle_clients_cannot_starve_heartbeats () =
  let store_path = sock_path "istore" in
  let store_pid =
    fork_daemon (fun () -> Fleet.run_store ~listen:(Fleet.Unix_sock store_path) ())
  in
  let worker_sock = sock_path "iworker" in
  let idle = ref [] and worker_pid = ref None in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !idle;
      Option.iter stop_daemon !worker_pid;
      stop_daemon store_pid;
      List.iter rm_f [ worker_sock; worker_sock ^ ".pid" ])
  @@ fun () ->
  wait_sock store_path;
  for i = 1 to 8 do
    match Http.connect (Unix.ADDR_UNIX store_path) with
    | Error e -> Alcotest.failf "idle client %d: connect: %s" i (Http.error_to_string e)
    | Ok fd -> (
        idle := fd :: !idle;
        match
          Result.bind (Http.write_request fd ~meth:"GET" ~path:"/healthz" ()) (fun () ->
              Http.read_response ~timeout:5.0 fd)
        with
        | Ok r -> ci (Printf.sprintf "idle client %d's request" i) 200 r.Http.status
        | Error e -> Alcotest.failf "idle client %d: %s" i (Http.error_to_string e))
  done;
  worker_pid :=
    Some
      (fork_daemon (fun () ->
           Fleet.run_worker ~register:(Fleet.Unix_sock store_path) ~heartbeat:0.5
             ~listen:(Fleet.Unix_sock worker_sock) ()));
  let listed () =
    match Fleet.members ~timeout:1.0 (Fleet.Unix_sock store_path) with
    | Ok ms -> List.mem_assoc worker_sock ms
    | Error e -> Alcotest.failf "members: %s" e
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while not (listed ()) do
    if Unix.gettimeofday () > deadline then Alcotest.fail "the worker never registered";
    ignore (Unix.select [] [] [] 0.05)
  done;
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < 3.0 do
    if not (listed ()) then
      Alcotest.failf "the worker aged out of /members after %.1f s" (Unix.gettimeofday () -. t0);
    ignore (Unix.select [] [] [] 0.1)
  done

(* A worker that stalls mid-response holds up only its own chunk. The
   stub answers its first request with a cut-off head and sleeps: the
   coordinator must keep collecting the healthy worker and steal the
   stub's chunk long before the stub's read deadline. *)
let test_stalled_worker () =
  let stub = sock_path "stall" in
  let pid =
    fork_daemon (fun () ->
        let lsock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind lsock (Unix.ADDR_UNIX stub);
        Unix.listen lsock 8;
        let buf = Bytes.create 65536 in
        let rec serve () =
          let fd, _ = Unix.accept lsock in
          (* the readiness probe connects and closes without a request *)
          if Unix.read fd buf 0 (Bytes.length buf) = 0 then begin
            Unix.close fd;
            serve ()
          end
          else begin
            ignore (Unix.write_substring fd "HTTP/1.1 200 OK\r\nContent-Le" 0 27);
            Unix.sleep 3600
          end
        in
        serve ())
  in
  Fun.protect ~finally:(fun () -> kill_daemon pid; rm_f stub) @@ fun () ->
  wait_sock stub;
  let steals0 = counter "fleet.steals" in
  let t0 = ref 0.0 in
  with_worker (fun live ->
      run_through
        ~options:
          { Fleet.default_options with Fleet.chunk = 2; steal_after = 0.3; read_timeout = 6.0 }
        ~before_fleet:(fun () -> t0 := Unix.gettimeofday ())
        [ stub; live ]);
  let took = Unix.gettimeofday () -. !t0 in
  cb (Printf.sprintf "done before the stub's deadline (%.1f s)" took) true (took < 6.0);
  cb "the stub's chunk was stolen" true (counter "fleet.steals" > steals0)

(* ---------------- run journals ---------------- *)

let with_run_dir f =
  let dir = Filename.temp_file "emc_runs" "" in
  Sys.remove dir;
  let old = Sys.getenv_opt "EMC_RUN_DIR" in
  Unix.putenv "EMC_RUN_DIR" dir;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "EMC_RUN_DIR" (Option.value ~default:"" old);
      if Sys.file_exists dir then
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      if Sys.file_exists dir then Unix.rmdir dir)
    (fun () -> f dir)

let test_journal_resume () =
  with_run_dir @@ fun dir ->
  let path = Fleet.journal_init ~run_id:"t1" ~argv:[| "emc"; "model"; "-w"; "mcf" |] in
  cb "journal under EMC_RUN_DIR" true (Filename.dirname path = dir);
  let w = Emc_workloads.Registry.find "mcf" in
  let variant = Emc_workloads.Workload.Train in
  let points = design_points 5 in
  let m1 = Measure.create ~cache_file:path (small_scale 1) in
  let y1 = Measure.cycles_coded_many m1 w ~variant points in
  ci "cold run simulates" (Array.length points) m1.Measure.simulations;
  (* a second init is a no-op on an existing journal *)
  cs "re-init returns the same path" path
    (Fleet.journal_init ~run_id:"t1" ~argv:[| "other" |]);
  (* the resumed run preloads everything: zero re-simulation *)
  let m2 = Measure.create ~cache_file:path (small_scale 1) in
  cb "journal preloaded" true (m2.Measure.preloaded > 0);
  let y2 = Measure.cycles_coded_many m2 w ~variant points in
  Alcotest.(check (array (float 0.0))) "resumed run bit-identical" y1 y2;
  ci "resumed run: zero simulations" 0 m2.Measure.simulations;
  (* journal_info reads the header and counts the records *)
  match Fleet.journal_info "t1" with
  | Error e -> Alcotest.failf "journal_info: %s" e
  | Ok ji ->
      cs "run id" "t1" ji.Fleet.ji_run_id;
      Alcotest.(check (list string)) "argv preserved (first writer wins)"
        [ "emc"; "model"; "-w"; "mcf" ] ji.Fleet.ji_argv;
      (* one simulation journals all three responses *)
      ci "entry count" (3 * m1.Measure.simulations) ji.Fleet.ji_entries;
      ci "nothing skipped" 0 ji.Fleet.ji_skipped

let test_journal_info_missing () =
  with_run_dir @@ fun _ ->
  cb "unknown run id is an error" true
    (match Fleet.journal_info "no-such-run" with Error _ -> true | Ok _ -> false)

(* ---------------- cache maintenance ---------------- *)

let test_cache_stats_and_compact () =
  let path = Filename.temp_file "emc_cachestats" ".jsonl" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  let oc = open_out path in
  output_string oc "{\"schema\":\"emc-run-journal/1\",\"run_id\":\"x\"}\n";
  output_string oc (Measure.cache_line "ka" 1.5 ^ "\n");
  output_string oc (Measure.cache_line "kb" 2.25 ^ "\n");
  output_string oc (Measure.cache_line "ka" 1.5 ^ "\n");
  output_string oc "garbage line\n";
  output_string oc "{\"k\":\"torn";  (* no newline: a killed writer *)
  close_out oc;
  let st = Measure.cache_stats path in
  ci "lines" 6 st.Measure.cs_lines;
  ci "entries" 3 st.Measure.cs_entries;
  ci "unique" 2 st.Measure.cs_unique;
  ci "duplicates" 1 st.Measure.cs_duplicates;
  ci "headers" 1 st.Measure.cs_headers;
  ci "malformed" 2 st.Measure.cs_malformed;
  cb "torn tail detected" true st.Measure.cs_torn;
  cb "hit keys reported" true (st.Measure.cs_top_duplicates = [ ("ka", 2) ]);
  (* compacting keeps the header and first occurrences, drops the rest *)
  let before = Measure.cache_compact path in
  ci "compact reports pre-compaction stats" 6 before.Measure.cs_lines;
  let st = Measure.cache_stats path in
  ci "compacted lines" 3 st.Measure.cs_lines;
  ci "compacted unique" 2 st.Measure.cs_unique;
  ci "no duplicates left" 0 st.Measure.cs_duplicates;
  ci "no malformed left" 0 st.Measure.cs_malformed;
  cb "no torn tail left" false st.Measure.cs_torn;
  (* the compacted file still loads, values intact *)
  let table = Hashtbl.create 8 in
  let loaded, skipped = Measure.cache_load table path in
  ci "loads cleanly" 2 loaded;
  ci "nothing skipped" 0 skipped;
  cb "values intact" true
    (Hashtbl.find_opt table "ka" = Some 1.5 && Hashtbl.find_opt table "kb" = Some 2.25)

(* A line whose number the JSON grammar rejects is one malformed line,
   for the stats and for every load, never an exception. *)
let test_cache_stats_bad_number () =
  let path = Filename.temp_file "emc_cachenum" ".jsonl" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  let oc = open_out path in
  output_string oc (Measure.cache_line "ka" 1.5 ^ "\n");
  output_string oc "{\"k\":\"b\",\"v\":1e}\n";
  close_out oc;
  let st = Measure.cache_stats path in
  ci "lines" 2 st.Measure.cs_lines;
  ci "entries" 1 st.Measure.cs_entries;
  ci "malformed" 1 st.Measure.cs_malformed;
  let table = Hashtbl.create 8 in
  let loaded, skipped = Measure.cache_load table path in
  ci "the whole record loads" 1 loaded;
  ci "the bad number is skipped" 1 skipped

let test_cache_stats_missing_file () =
  let st = Measure.cache_stats "/nonexistent/emc_nope.jsonl" in
  ci "missing file is empty" 0 st.Measure.cs_lines;
  cb "missing file is not torn" false st.Measure.cs_torn

let test_torn_tail_repaired_on_append () =
  (* a killed run leaves a torn tail; the next writer must not glue its
     first record onto it *)
  let path = Filename.temp_file "emc_torn" ".jsonl" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  let oc = open_out path in
  output_string oc (Measure.cache_line "ka" 1.5 ^ "\n");
  output_string oc "{\"k\":\"to";
  close_out oc;
  let oc = Measure.cache_open_append path in
  output_string oc (Measure.cache_line "kb" 2.25 ^ "\n");
  close_out oc;
  let table = Hashtbl.create 8 in
  let loaded, skipped = Measure.cache_load table path in
  ci "both whole records load" 2 loaded;
  ci "only the torn line is skipped" 1 skipped;
  cb "appended record intact, not glued" true (Hashtbl.find_opt table "kb" = Some 2.25)

(* ---------------- typed client errors ---------------- *)

let test_connect_refused_is_typed () =
  (* nothing listens here: the client path must yield a typed Refused, not
     leak a raw Unix_error *)
  (match Http.connect (Unix.ADDR_UNIX (sock_path "nobody")) with
  | Error (Http.Refused _) -> ()
  | Error e -> Alcotest.failf "want Refused, got %s" (Http.error_to_string e)
  | Ok _ -> Alcotest.fail "connect to nobody succeeded");
  (* TCP variant: a port in TIME_WAIT-free reserved space *)
  match Http.connect (Unix.ADDR_INET (Unix.inet_addr_loopback, 1)) with
  | Error (Http.Refused _) | Error Http.Timeout -> ()
  | Error e -> Alcotest.failf "want Refused/Timeout, got %s" (Http.error_to_string e)
  | Ok fd ->
      Unix.close fd;
      Alcotest.fail "connect to port 1 succeeded"

(* ---------------- unresolvable hosts, TCP ---------------- *)

(* A store host that does not resolve is a store failure like any other:
   the coordinator logs its failed poll, lookup and puts and dispatches
   through. *)
let test_unresolvable_store () =
  with_worker (fun live -> run_through [ live; "@no-such-host.invalid:9" ])

(* A worker whose host does not resolve fails at connect like a refused
   one: only that worker is lost, its chunk runs elsewhere. *)
let test_unresolvable_worker () =
  let failures0 = counter "fleet.worker_failures" in
  with_worker (fun live -> run_through [ live; "no-such-host.invalid:9101" ]);
  ci "one worker failure" (failures0 + 1) (counter "fleet.worker_failures")

let test_members_unresolvable () =
  cb "an Error, not an exception" true
    (Result.is_error (Fleet.members (Fleet.Tcp ("no-such-host.invalid", 1))))

let test_tcp_worker () =
  let addr = Fleet.Tcp ("127.0.0.1", Test_serve.free_port ()) in
  let pid = fork_daemon (fun () -> Fleet.run_worker ~listen:addr ()) in
  Fun.protect ~finally:(fun () -> stop_daemon pid) @@ fun () ->
  Test_serve.wait_up addr;
  run_through [ Http.addr_to_string addr ]

let suite =
  [
    ("parse_addr forms", `Quick, test_parse_addr);
    ("parse_source @ prefix", `Quick, test_parse_sources);
    ("parse_fleet errors", `Quick, test_parse_fleet_errors);
    ("chunk_plan covers degenerate shapes", `Quick, test_chunk_plan);
    ("next_wake sleeps to the nearest event", `Quick, test_next_wake);
    ("hex floats survive the wire", `Quick, test_hex_float_roundtrip);
    ("store daemon: put/lookup/get/persist", `Quick, test_store_daemon);
    ("store membership: register/heartbeat/expire", `Quick, test_store_membership);
    ("one worker bit-identical to jobs=1", `Slow, test_fleet_bit_identity);
    ("two workers bit-identical to jobs=1", `Slow, test_fleet_two_workers);
    ("healthy run: no spurious dispatches", `Slow, test_fleet_no_spurious_dispatches);
    ("pipelined depth 3 bit-identical", `Slow, test_fleet_pipelined_depth);
    ("pipelined depth 4, two workers", `Slow, test_fleet_pipelined_two_workers);
    ("elastic: worker joins mid-run", `Slow, test_elastic_join_mid_run);
    ("elastic: drain mid-run loses nothing", `Slow, test_elastic_drain_mid_run);
    ("elastic: dead worker retried, SIGKILL ages out", `Slow, test_registered_worker_death);
    ("store refuses to replace a regular file", `Quick, test_store_refuses_regular_file);
    ("idle store clients cannot starve heartbeats", `Slow,
     test_idle_clients_cannot_starve_heartbeats);
    ("dead worker: chunk retried elsewhere", `Slow, test_fleet_retries_dead_worker);
    ("dropped connection: chunk retried", `Slow, test_fleet_retries_dropped_connection);
    ("stalled worker: chunk stolen, run goes on", `Slow, test_stalled_worker);
    ("all workers dead raises Fleet_error", `Quick, test_all_workers_dead);
    ("shared store: fresh worker, zero simulations", `Slow, test_coordinator_feeds_store);
    ("journal resume: zero re-simulation", `Slow, test_journal_resume);
    ("journal_info on unknown id", `Quick, test_journal_info_missing);
    ("cache stats and compaction", `Quick, test_cache_stats_and_compact);
    ("cache stats on a missing file", `Quick, test_cache_stats_missing_file);
    ("bad cache number is malformed", `Quick, test_cache_stats_bad_number);
    ("torn tail repaired before append", `Quick, test_torn_tail_repaired_on_append);
    ("connection refused is typed", `Quick, test_connect_refused_is_typed);
    ("unresolvable store: simulated through", `Slow, test_unresolvable_store);
    ("unresolvable worker fails alone", `Slow, test_unresolvable_worker);
    ("members of an unresolvable store", `Quick, test_members_unresolvable);
    ("worker over TCP bit-identical to jobs=1", `Slow, test_tcp_worker);
    ("coordinator builds no binary", `Slow, test_coordinator_builds_nothing);
  ]
