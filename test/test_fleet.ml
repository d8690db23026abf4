(** The distributed measurement subsystem, end to end: address parsing,
    bit-exact hex-float transport, the coordinator's scheduler on a fake
    clock against scripted and generated schedules, the content-addressed
    result store and the worker daemon as real forked processes on temp
    Unix sockets, the coordinator's bit-identity contract against a
    sequential in-process run (values and [measure.*] counters), crash
    retry against dead and connection-dropping workers, run-journal
    resume with zero re-simulation, and the [emc cache] maintenance
    pass. *)

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

(* ---------------- the scheduler on a fake clock ---------------- *)

module Sched = Fleet.Sched

(* A fake worker. Its connection serves requests in order, the k-th
   taking a whole number of seconds drawn from the seed (1-24, or 40-199
   when [slow]; a [stall] never finishes), and answers every chunk with
   the deterministic {!answer}s; its [desync]-th response carries another
   chunk's id. From [gone] on its connection resets and connects fail. A
   [member] is listed by membership polls over [listed]. *)
type fake = {
  name : string;
  member : bool;
  listed : float * float;
  gone : float;
  slow : bool;
  stall : int option;
  desync : int option;
}

let fake ?(member = false) ?(listed = (0.0, infinity)) ?(gone = infinity) ?(slow = false)
    ?stall ?desync name =
  { name; member; listed; gone; slow; stall; desync }

let answer slot =
  { Measure.t_cycles = float slot +. 0.5; t_energy = float (3 * slot) +. 0.25;
    t_code_size = float (slot + 7) }

(* A fake worker's one connection, which the scheduler's view of its
   pipeline must match. *)
type fake_conn = {
  f : fake;
  pipe : int Queue.t;  (** chunk ids on the connection, response order *)
  mutable started : float;  (** when the head started being served *)
  mutable answered : int;
  mutable failed : bool;  (** reported failed, or closed by the scheduler *)
}

exception Violation of string

let violation fmt = Printf.ksprintf (fun m -> raise (Violation m)) fmt

type outcome = {
  o_error : string option;  (** the batch's Fleet_error, if it failed *)
  o_end : float;  (** fake time the batch finished or failed *)
  o_sends : (float * string * int) list;  (** every dispatch: time, worker, chunk *)
}

(* What the driver would do, on a clock that only moves when nothing is
   left to do: perform each action, sleep for [Sched.wake] or until the
   next fake response, deliver it. Every scheduling invariant is checked
   as the run goes, raising [Violation]:
   - no Send to a worker after it failed or left, at most [depth]
     outstanding per worker, and a chunk is re-sent while a dispatch of it
     is live only as a steal of a chunk with exactly one;
   - one Put per chunk, with its own answers, every slot merged once;
   - a failed poll fails no worker;
   - Fleet_error only when a chunk that failed its third dispatch has no
     live twin, and whenever one does;
   - [wake] equals the gap to the nearest deadline, steal timer or poll,
     recomputed from the dispatches and completions seen. *)
let run_fake ~n ~chunk ~depth ~elastic ?(poll_fails = 0) ?(seed = 0) fakes =
  let rng = Random.State.make [| seed |] in
  let serve f k =
    if f.stall = Some k then infinity
    else
      let h = Hashtbl.hash (seed, f.name, k) in
      if f.slow then float (40 + (h mod 160)) else float (1 + (h mod 24))
  in
  let conns =
    List.map
      (fun f -> (f.name, { f; pipe = Queue.create (); started = 0.0; answered = 0; failed = false }))
      fakes
  in
  let conn w = List.assoc w conns in
  let s =
    Sched.create ~depth ~elastic
      (List.filter_map (fun f -> if f.member then None else Some f.name) fakes)
  in
  let now = ref 0.0 and next_poll = ref infinity and sends = ref [] in
  let joined = Hashtbl.create 8 in
  let plan = ref [||] and tries = ref [||] and live = ref [||] and put = ref [||] in
  let merged = Array.make n 0 in
  let exception Batch_failed of string in
  (* a Fleet_error is justified when some unfinished chunk with three
     dispatches has every live one on a worker failing now *)
  let guarded failing f =
    try f ()
    with Fleet.Fleet_error msg ->
      let justified c =
        (not !put.(c)) && !tries.(c) >= 3
        && List.for_all
             (fun (w, k) ->
               k.failed || (not (List.mem c (List.of_seq (Queue.to_seq k.pipe))))
               || List.mem w failing)
             conns
      in
      if not (List.exists justified (List.init (Array.length !plan) Fun.id)) then
        violation "Fleet_error at t=%g with no exhausted chunk: %s" !now msg;
      raise (Batch_failed msg)
  in
  let deliver w ev =
    (match ev with Sched.Failed _ -> (conn w).failed <- true | _ -> ());
    guarded [ w ] (fun () -> Sched.handle s ~now:!now ev)
  in
  let poll () =
    let listed =
      List.filter
        (fun f -> f.member && fst f.listed <= !now && !now < snd f.listed)
        fakes
      |> List.map (fun f -> f.name)
    in
    let complete = Random.State.int rng 100 >= poll_fails in
    let union = if complete then listed else List.filter (fun _ -> Random.State.bool rng) listed in
    next_poll := !now +. 1.0;
    let f0 = counter "fleet.worker_failures" in
    let leaving =
      Hashtbl.fold (fun w () acc -> if List.mem w union then acc else w :: acc) joined []
    in
    guarded
      (if complete then leaving else [])
      (fun () -> Sched.handle s ~now:!now (Sched.Members (union, complete)));
    if (not complete) && counter "fleet.worker_failures" <> f0 then
      violation "a failed poll at t=%g failed a worker" !now;
    List.iter (fun w -> Hashtbl.replace joined w ()) union
  in
  let send w c stole =
    let k = conn w in
    if k.failed then violation "chunk %d sent to %s at t=%g after it failed or left" c w !now;
    if !live.(c) > 0 then begin
      if stole <> 1 || !live.(c) <> 1 then
        violation "chunk %d re-sent at t=%g while %d dispatches of it are live, not as a steal" c
          !now !live.(c)
    end
    else if stole <> 0 then violation "steal of chunk %d with no live dispatch" c;
    !tries.(c) <- !tries.(c) + 1;
    !live.(c) <- !live.(c) + 1;
    if Queue.is_empty k.pipe then k.started <- !now;
    Queue.push c k.pipe;
    if Queue.length k.pipe > depth then
      violation "%s has %d dispatches outstanding at depth %d" w (Queue.length k.pipe) depth;
    sends := (!now, w, c) :: !sends;
    if !now >= k.f.gone then deliver w (Sched.Failed (w, "connect: refused"))
  in
  let close w =
    let k = conn w in
    k.failed <- true;
    Queue.iter
      (fun c ->
        !live.(c) <- !live.(c) - 1;
        if (not !put.(c)) && !live.(c) = 0 && !tries.(c) >= 3 then
          violation "chunk %d failed its third dispatch at t=%g and the batch went on" c !now)
      k.pipe;
    Queue.clear k.pipe
  in
  let merge c triples =
    if !put.(c) then violation "chunk %d put twice" c;
    !put.(c) <- true;
    let start, len = !plan.(c) in
    if triples <> Array.init len (fun j -> answer (start + j)) then
      violation "chunk %d put with another chunk's answers" c;
    for slot = start to start + len - 1 do
      merged.(slot) <- merged.(slot) + 1
    done
  in
  let rec drain () =
    let expired =
      List.filter_map
        (fun (w, k) ->
          if (not k.failed) && (not (Queue.is_empty k.pipe)) && !now >= k.started +. 600.0
          then Some w
          else None)
        conns
    in
    let steals0 = counter "fleet.steals" in
    match guarded expired (fun () -> Sched.next s ~now:!now) with
    | None -> ()
    | Some a ->
        (match a with
        | Sched.Send (w, c) -> send w c (counter "fleet.steals" - steals0)
        | Sched.Close w -> close w
        | Sched.Put (c, triples) -> merge c triples
        | Sched.Poll -> poll ());
        drain ()
  in
  (* the next response or connection reset of any live connection *)
  let due k =
    if k.failed || Queue.is_empty k.pipe then infinity
    else min k.f.gone (k.started +. serve k.f k.answered)
  in
  let step () =
    List.iter
      (fun (w, k) ->
        if due k <= !now then
          if !now >= k.f.gone then deliver w (Sched.Failed (w, "connection reset"))
          else if k.f.desync = Some k.answered then
            deliver w (Sched.Failed (w, "pipeline desync"))
          else begin
            let c = Queue.pop k.pipe in
            !live.(c) <- !live.(c) - 1;
            k.answered <- k.answered + 1;
            k.started <- !now;
            let start, len = !plan.(c) in
            deliver w (Sched.Completed (w, Array.init len (fun j -> answer (start + j))))
          end)
      conns
  in
  let expected_wake () =
    let cands =
      (if elastic then [ !next_poll ] else [])
      @ List.concat_map
          (fun (_, k) ->
            if k.failed || Queue.is_empty k.pipe then []
            else [ k.started +. 600.0; k.started +. 30.0 ])
          conns
    in
    match (cands, List.filter (fun at -> at > !now) cands) with
    | [], _ -> 60.0
    | _, [] -> 0.05
    | _, future -> min 60.0 (max 0.001 (List.fold_left min infinity future -. !now))
  in
  let error =
    try
      if elastic then poll ();
      plan := Array.of_list (Sched.plan s ~now:!now ~chunk n);
      let nc = Array.length !plan in
      tries := Array.make nc 0;
      live := Array.make nc 0;
      put := Array.make nc false;
      next_poll := !now +. 1.0;
      drain ();
      while not (Sched.finished s) do
        if !now > 100_000.0 then violation "no progress by t=%g" !now;
        let gap = Sched.wake s ~now:!now in
        if gap <> expected_wake () then
          violation "wake %g at t=%g, expected %g" gap !now (expected_wake ());
        now := List.fold_left (fun t (_, k) -> min t (due k)) (!now +. gap) conns;
        step ();
        drain ()
      done;
      Array.iteri (fun slot m -> if m <> 1 then violation "slot %d merged %d times" slot m) merged;
      None
    with Batch_failed msg -> Some msg
  in
  { o_error = error; o_end = !now; o_sends = List.rev !sends }

(* [f] with the scheduler's failure warnings silenced: generated
   schedules fail workers by the hundred *)
let quietly f =
  let level = Emc_obs.Log.level () in
  Emc_obs.Log.set_level Emc_obs.Log.Error;
  Fun.protect ~finally:(fun () -> Emc_obs.Log.set_level level) f

let run_ok ~n ~chunk ~depth ~elastic fakes =
  match quietly (fun () -> run_fake ~n ~chunk ~depth ~elastic fakes) with
  | { o_error = None; _ } as o -> o
  | { o_error = Some e; _ } -> Alcotest.failf "the batch failed: %s" e
  | exception Violation msg -> Alcotest.fail msg

let test_next_wake () =
  let cf = Alcotest.(check (float 1e-9)) in
  (* one worker running one chunk since [at] *)
  let running ?(elastic = false) at =
    let s = Sched.create ~depth:1 ~elastic [ "w" ] in
    ignore (Sched.plan s ~now:at ~chunk:1 1);
    match Sched.next s ~now:at with
    | Some (Sched.Send ("w", 0)) -> s
    | _ -> Alcotest.fail "the chunk was not dispatched"
  in
  (* nothing to wait for: a long fallback, not a busy tick *)
  cf "no events sleeps long" 60.0
    (Sched.wake (Sched.create ~depth:1 ~elastic:false [ "w" ]) ~now:1000.0);
  (* one running head: wake exactly at its steal timer (30 s) *)
  cf "sleeps to the steal timer" 25.0 (Sched.wake (running 995.0) ~now:1000.0);
  (* steal timer already past: next event is the read deadline (600 s),
     not a near-zero sleep clamped against the stale steal timer *)
  cf "past steal timer falls through to the deadline" 10.0
    (Sched.wake (running 410.0) ~now:1000.0);
  (* a nearer membership poll wins *)
  cf "membership poll caps the sleep" 0.5
    (Sched.wake (running ~elastic:true 999.5) ~now:1000.0);
  (* everything due: short wake so the caller handles it, never 0 *)
  cb "due events wake shortly but not busily" true
    (let t = Sched.wake (running ~elastic:true 100.0) ~now:2000.0 in
     t > 0.0 && t <= 0.05);
  (* clamped below 60 even for far-future deadlines *)
  cf "clamped to 60s" 60.0 (Sched.wake (running 0.0) ~now:100.0)

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

let stop_daemon pid = ignore (Helpers.stop_daemon pid)

(* Every daemon is stopped however [f] ends; a failure of [f] is the one
   raised, and a daemon that would not stop fails a case that passed. *)
let with_daemons specs f =
  let daemons = List.map (fun run -> let path = sock_path "d" in (path, fork_daemon (run path))) specs in
  let stop () = ignore (Helpers.stop_daemons (List.map snd daemons)) in
  match
    List.iter (fun (path, _) -> wait_sock path) daemons;
    f (List.map fst daemons)
  with
  | r ->
      stop ();
      r
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      (try stop () with _ -> ());
      Printexc.raise_with_backtrace e bt

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
      let prefilled0 = counter "fleet.store_prefilled" in
      let y2 = measure path in
      Alcotest.(check (array (float 0.0))) "store-served run bit-identical" y1 y2;
      ci "nothing dispatched" dispatched0 (counter "fleet.dispatched");
      ci "all unique points served by the pre-filter" (prefilled0 + 4)
        (counter "fleet.store_prefilled");
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

(* The membership table is empty when the batch starts; a worker
   registers at t = 2.5 s, the poll at t = 3 s discovers it, and it is
   handed every pending chunk. (Its bit-identity through a real elastic
   fleet and the store-fed warm campaign are checked by "elastic: dead
   worker retried, SIGKILL ages out" and "shared store: fresh worker,
   zero simulations".) *)
let test_elastic_join_mid_run () =
  let joined0 = counter "fleet.workers_joined" in
  let dispatched0 = counter "fleet.dispatched" in
  let o =
    run_ok ~n:8 ~chunk:2 ~depth:1 ~elastic:true
      [ fake ~member:true ~listed:(2.5, infinity) "late" ]
  in
  ci "the worker joined via membership" (joined0 + 1) (counter "fleet.workers_joined");
  ci "the joined worker received every chunk" (dispatched0 + 4) (counter "fleet.dispatched");
  cb "nothing dispatched before the poll that found it" true
    (List.for_all (fun (t, _, _) -> t >= 3.0) o.o_sends)

(* Two registered workers at chunk 1, depth 2; w1 drains at t = 5 s: it
   leaves the membership table and closes its connection a second later.
   The poll that misses it fails it, its queued chunks requeue on w2, and
   every slot is still merged exactly once. (That a drained worker
   deregisters and the other stays listed is checked on real daemons by
   "elastic: dead worker retried, SIGKILL ages out".) *)
let test_elastic_drain_mid_run () =
  let lost0 = counter "fleet.workers_lost" in
  let o =
    run_ok ~n:8 ~chunk:1 ~depth:2 ~elastic:true
      [ fake ~member:true ~listed:(0.0, 5.0) ~gone:6.0 "w1"; fake ~member:true "w2" ]
  in
  ci "the drained worker was noticed by a poll" (lost0 + 1) (counter "fleet.workers_lost");
  cb "nothing sent to it once it left" true
    (List.for_all (fun (t, w, _) -> w <> "w1" || t < 5.0) o.o_sends)

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
  let registered sock =
    fork_daemon (fun () ->
        Fleet.run_worker ~register:(Fleet.Unix_sock store_path) ~heartbeat:0.1
          ~listen:(Fleet.Unix_sock sock) ())
  in
  let live = sock_path "klive" and drained = sock_path "kdrain" in
  let p = registered live and pd = registered drained in
  Fun.protect
    ~finally:(fun () ->
      kill_daemon p;
      kill_daemon pd;
      List.iter rm_f [ live; live ^ ".pid"; drained; drained ^ ".pid" ])
  @@ fun () ->
  (* the batch's first membership poll must see both workers *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  while
    not (List.for_all (fun w -> List.mem w (member_addrs store_path)) [ live; drained ])
  do
    if Unix.gettimeofday () > deadline then Alcotest.fail "the workers never registered";
    ignore (Unix.select [] [] [] 0.02)
  done;
  let failures0 = counter "fleet.worker_failures" in
  let retried0 = counter "fleet.retried" in
  run_through ~options:{ Fleet.default_options with Fleet.chunk = 2 } [ "@" ^ store_path ];
  cb "dead registered worker failed" true (counter "fleet.worker_failures" > failures0);
  cb "its chunks were retried" true (counter "fleet.retried" > retried0);
  (* SIGTERM drains a worker: it finishes, deregisters and exits; the
     other stays *)
  stop_daemon pd;
  let ms = member_addrs store_path in
  cb "drained worker deregistered" false (List.mem drained ms);
  cb "surviving worker still registered" true (List.mem live ms);
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
      ignore (Helpers.stop_daemons (Option.to_list !worker_pid @ [ store_pid ]));
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

(* A worker that stalls mid-response holds up only its own chunk: the
   healthy worker runs every other chunk, the stalled one is stolen once
   it has run 30 s with an idle worker free, and the batch ends long
   before the 600 s deadline. The socket half — a cut-off head blocks no
   other connection — is "stalled worker: a cut-off head blocks no one". *)
let test_stalled_worker () =
  let steals0 = counter "fleet.steals" in
  let o =
    run_ok ~n:8 ~chunk:2 ~depth:1 ~elastic:false [ fake ~stall:0 "stall"; fake "live" ]
  in
  cb (Printf.sprintf "done before the stub's deadline (t=%g s)" o.o_end) true (o.o_end < 600.0);
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
  let path = Result_file.journal_init ~run_id:"t1" ~argv:[| "emc"; "model"; "-w"; "mcf" |] in
  cb "journal under EMC_RUN_DIR" true (Filename.dirname path = dir);
  let w = Emc_workloads.Registry.find "mcf" in
  let variant = Emc_workloads.Workload.Train in
  let points = design_points 5 in
  let m1 = Measure.create ~cache_file:path (small_scale 1) in
  let y1 = Measure.cycles_coded_many m1 w ~variant points in
  ci "cold run simulates" (Array.length points) m1.Measure.simulations;
  (* a second init is a no-op on an existing journal *)
  cs "re-init returns the same path" path
    (Result_file.journal_init ~run_id:"t1" ~argv:[| "other" |]);
  (* the resumed run preloads everything: zero re-simulation *)
  let m2 = Measure.create ~cache_file:path (small_scale 1) in
  cb "journal preloaded" true (m2.Measure.preloaded > 0);
  let y2 = Measure.cycles_coded_many m2 w ~variant points in
  Alcotest.(check (array (float 0.0))) "resumed run bit-identical" y1 y2;
  ci "resumed run: zero simulations" 0 m2.Measure.simulations;
  (* journal_info reads the header and counts the records *)
  match Result_file.journal_info "t1" with
  | Error e -> Alcotest.failf "journal_info: %s" e
  | Ok ji ->
      cs "run id" "t1" ji.Result_file.ji_run_id;
      Alcotest.(check (list string)) "argv preserved (first writer wins)"
        [ "emc"; "model"; "-w"; "mcf" ] ji.Result_file.ji_argv;
      (* one simulation journals all three responses *)
      ci "entry count" (3 * m1.Measure.simulations) ji.Result_file.ji_entries;
      ci "nothing skipped" 0 ji.Result_file.ji_skipped

let test_journal_info_missing () =
  with_run_dir @@ fun _ ->
  cb "unknown run id is an error" true
    (match Result_file.journal_info "no-such-run" with Error _ -> true | Ok _ -> false)

(* ---------------- cache maintenance ---------------- *)

let test_cache_stats_and_compact () =
  let path = Filename.temp_file "emc_cachestats" ".jsonl" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  let oc = open_out path in
  output_string oc "{\"schema\":\"emc-run-journal/1\",\"run_id\":\"x\"}\n";
  output_string oc (Result_file.line "ka" 1.5 ^ "\n");
  output_string oc (Result_file.line "kb" 2.25 ^ "\n");
  output_string oc (Result_file.line "ka" 1.5 ^ "\n");
  output_string oc "garbage line\n";
  output_string oc "{\"k\":\"torn";  (* no newline: a killed writer *)
  close_out oc;
  let st = Result_file.stats path in
  ci "lines" 6 st.Result_file.cs_lines;
  ci "entries" 3 st.Result_file.cs_entries;
  ci "unique" 2 st.Result_file.cs_unique;
  ci "duplicates" 1 st.Result_file.cs_duplicates;
  ci "headers" 1 st.Result_file.cs_headers;
  ci "malformed" 2 st.Result_file.cs_malformed;
  cb "torn tail detected" true st.Result_file.cs_torn;
  cb "hit keys reported" true (st.Result_file.cs_top_duplicates = [ ("ka", 2) ]);
  (* compacting keeps the header and first occurrences, drops the rest *)
  let before = Result_file.compact path in
  ci "compact reports pre-compaction stats" 6 before.Result_file.cs_lines;
  let st = Result_file.stats path in
  ci "compacted lines" 3 st.Result_file.cs_lines;
  ci "compacted unique" 2 st.Result_file.cs_unique;
  ci "no duplicates left" 0 st.Result_file.cs_duplicates;
  ci "no malformed left" 0 st.Result_file.cs_malformed;
  cb "no torn tail left" false st.Result_file.cs_torn;
  (* the compacted file still loads, values intact *)
  let table = Hashtbl.create 8 in
  let loaded, skipped, _ = Result_file.load table path in
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
  output_string oc (Result_file.line "ka" 1.5 ^ "\n");
  output_string oc "{\"k\":\"b\",\"v\":1e}\n";
  close_out oc;
  let st = Result_file.stats path in
  ci "lines" 2 st.Result_file.cs_lines;
  ci "entries" 1 st.Result_file.cs_entries;
  ci "malformed" 1 st.Result_file.cs_malformed;
  let table = Hashtbl.create 8 in
  let loaded, skipped, _ = Result_file.load table path in
  ci "the whole record loads" 1 loaded;
  ci "the bad number is skipped" 1 skipped

let test_cache_stats_missing_file () =
  let st = Result_file.stats "/nonexistent/emc_nope.jsonl" in
  ci "missing file is empty" 0 st.Result_file.cs_lines;
  cb "missing file is not torn" false st.Result_file.cs_torn

let test_torn_tail_repaired_on_append () =
  (* a killed run leaves a torn tail; the next writer must not glue its
     first record onto it *)
  let path = Filename.temp_file "emc_torn" ".jsonl" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  let oc = open_out path in
  output_string oc (Result_file.line "ka" 1.5 ^ "\n");
  output_string oc "{\"k\":\"to";
  close_out oc;
  let oc = Result_file.open_append path in
  Result_file.append oc [ ("kb", 2.25) ];
  close_out oc;
  let table = Hashtbl.create 8 in
  let loaded, skipped, _ = Result_file.load table path in
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

(* ---------------- generated schedules ---------------- *)

(* A generated schedule: an always-healthy worker w0 (static, or a member
   joining at [anchor]) beside up to four workers that may be slow
   (stolen from, then answer late), stall, die, be registered but
   unreachable (ghost), drain, or desync, joining late when they are
   members; polls fail at random when [elastic]. *)
type kind = Healthy | Slow | Stall | Dies | Ghost | Drains | Desync

type wspec = { kind : kind; member : bool; join : int; at : int }

type spec = {
  n : int;
  chunk : int;
  depth : int;
  elastic : bool;
  anchor : int option;
  poll_fails : int;  (** percent *)
  seed : int;
  workers : wspec list;
}

let kind_name = function
  | Healthy -> "healthy" | Slow -> "slow" | Stall -> "stall" | Dies -> "dies"
  | Ghost -> "ghost" | Drains -> "drains" | Desync -> "desync"

let print_spec sp =
  Printf.sprintf "n=%d chunk=%d depth=%d elastic=%b anchor=%s poll_fails=%d%% seed=%d [%s]"
    sp.n sp.chunk sp.depth sp.elastic
    (match sp.anchor with Some j -> Printf.sprintf "member@%d" j | None -> "static")
    sp.poll_fails sp.seed
    (String.concat "; "
       (List.mapi
          (fun i w ->
            Printf.sprintf "w%d %s%s join=%d at=%d" (i + 1) (kind_name w.kind)
              (if w.member then " member" else "") w.join w.at)
          sp.workers))

let spec_gen =
  let open QCheck2.Gen in
  let wspec =
    let+ kind =
      frequencyl
        [ (6, Healthy); (1, Slow); (1, Stall); (1, Dies); (1, Ghost); (1, Drains); (1, Desync) ]
    and+ member = bool
    and+ join = int_range 0 20
    and+ at = int_range 0 60 in
    { kind; member; join; at }
  in
  let+ n = int_range 1 40
  and+ chunk = int_range 0 5
  and+ depth = int_range 1 4
  and+ elastic = bool
  and+ anchor = opt (int_range 0 20)
  and+ poll_fails = oneofl [ 0; 20; 50 ]
  and+ seed = int_range 0 1000
  and+ workers = list_size (int_range 0 4) wspec in
  { n; chunk; depth; elastic; anchor; poll_fails; seed; workers }

let fakes_of sp =
  let member m = sp.elastic && m in
  fake ~member:(member (sp.anchor <> None))
    ~listed:(float (Option.value sp.anchor ~default:0), infinity)
    "w0"
  :: List.mapi
       (fun i w ->
         let name = Printf.sprintf "w%d" (i + 1) and member = member w.member in
         let join = float w.join and at = float w.at in
         match w.kind with
         | Healthy -> fake ~member ~listed:(join, infinity) name
         | Slow -> fake ~member ~listed:(join, infinity) ~slow:true name
         | Stall -> fake ~member ~listed:(join, infinity) ~stall:(w.at mod 3) name
         | Dies -> fake ~member ~listed:(join, at +. 6.0) ~gone:at name
         | Ghost -> fake ~member ~listed:(join, infinity) ~gone:0.0 name
         | Drains -> fake ~member ~listed:(join, at) ~gone:(at +. 1.0) name
         | Desync -> fake ~member ~listed:(join, infinity) ~desync:(w.at mod 3) name)
       sp.workers

(* Every invariant [run_fake] checks, over generated schedules; and a
   schedule with no slow, stalled or failing worker steals and retries
   nothing and completes. *)
let prop_schedules =
  QCheck2.Test.make ~name:"scheduler: generated schedules" ~count:500 ~print:print_spec spec_gen
    (fun sp ->
      let steals0 = counter "fleet.steals" and retried0 = counter "fleet.retried" in
      match
        quietly (fun () ->
            run_fake ~n:sp.n ~chunk:sp.chunk ~depth:sp.depth ~elastic:sp.elastic
              ~poll_fails:sp.poll_fails ~seed:sp.seed (fakes_of sp))
      with
      | exception Violation msg -> QCheck2.Test.fail_reportf "%s" msg
      | o ->
          let steals = counter "fleet.steals" - steals0
          and retried = counter "fleet.retried" - retried0 in
          if List.for_all (fun w -> w.kind = Healthy) sp.workers
             && (o.o_error <> None || steals <> 0 || retried <> 0)
          then
            QCheck2.Test.fail_reportf "healthy schedule: %d steals, %d retries, error %s" steals
              retried (Option.value o.o_error ~default:"none");
          true)

(* The I/O half of "stalled worker: chunk stolen, run goes on", with no
   timer: the stub answers its one request with a head it never ends,
   one more byte of it per look at the healthy worker's /metrics, and
   closes (a truncated message, so its chunk requeues) only once the
   healthy worker has received every other point. A coordinator that
   read the stub's connection until a whole response arrived would never
   send it those points; after 20 s the stub gives up and exits 3. *)
let test_stalled_head_blocks_no_one () =
  with_worker @@ fun live ->
  let stub = sock_path "cut" in
  let pid =
    fork_daemon (fun () ->
        let lsock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind lsock (Unix.ADDR_UNIX stub);
        Unix.listen lsock 8;
        let buf = Bytes.create 65536 in
        (* the readiness probe connects and closes without a request *)
        let rec request () =
          let fd, _ = Unix.accept lsock in
          if Unix.read fd buf 0 (Bytes.length buf) > 0 then fd
          else begin
            Unix.close fd;
            request ()
          end
        in
        let fd = request () in
        ignore (Unix.write_substring fd "HTTP/1.1 200 OK\r\nX-Pad: " 0 24);
        let measured () =
          match Http.call (Fleet.Unix_sock live) ~meth:"GET" ~path:"/metrics" () with
          | Error _ -> 0
          | Ok r ->
              String.split_on_char '\n' r.Http.resp_body
              |> List.find_map (fun l ->
                     Scanf.sscanf_opt l "emc_fleet_points_measured %d" Fun.id)
              |> Option.value ~default:0
        in
        (* 7 unique points at chunk 2: the stub holds chunk 0's two *)
        let deadline = Unix.gettimeofday () +. 20.0 in
        while measured () < 5 && Unix.gettimeofday () < deadline do
          ignore (Unix.write_substring fd "a" 0 1);
          ignore (Unix.select [] [] [] 0.02)
        done;
        let covered = measured () >= 5 in
        Unix.close fd;
        Unix._exit (if covered then 0 else 3))
  in
  Fun.protect ~finally:(fun () -> kill_daemon pid; rm_f stub) @@ fun () ->
  wait_sock stub;
  let retried0 = counter "fleet.retried" in
  run_through ~options:{ Fleet.default_options with Fleet.chunk = 2 } [ stub; live ];
  cb "the stub's cut-off head held up no other worker" true
    (snd (Unix.waitpid [] pid) = Unix.WEXITED 0);
  cb "its chunk was requeued" true (counter "fleet.retried" > retried0)

(* ---------------- what the simulator cannot run ---------------- *)

(* A /measure body for one gzip point. *)
let measure_request ?(workload_scale = 0.05) ?smarts () =
  Fleet.measure_body (Emc_workloads.Registry.find "gzip") ~variant:Emc_workloads.Workload.Train
    ~workload_scale ~smarts
    [| Params.configs_of_coded (Array.make Params.n_all 0.0) |]

let zero_unit = { Emc_sim.Smarts.default_params with unit_size = 0; warmup = 0 }

(* A /measure body for one gzip point at -O2, which schedules, on the
   given machine. *)
let march_request march =
  Fleet.measure_body (Emc_workloads.Registry.find "gzip") ~variant:Emc_workloads.Workload.Train
    ~workload_scale:0.05 ~smarts:None [| (Emc_opt.Flags.o2, march) |]

let width_request width = march_request { Emc_sim.Config.typical with issue_width = width }
let ruu_request size = march_request { Emc_sim.Config.typical with ruu_size = size }
let dcache_lat_request lat = march_request { Emc_sim.Config.typical with dcache_lat = lat }

(* A SMARTS unit of no instructions never advances the sampling loop,
   an infinite workload scale names no workload size, and one above the
   largest preset's 1.0 asks for inputs without bound: all are rejected,
   while the same bodies with runnable values decode. *)
let test_unrunnable_measure_rejected () =
  let decodes body = Result.is_ok (Fleet.measure_request_of_body body) in
  cb "unit_size 0 rejected" false (decodes (measure_request ~smarts:zero_unit ()));
  cb "infinite workload_scale rejected" false
    (decodes (measure_request ~workload_scale:Float.infinity ()));
  Alcotest.(check (result unit string)) "workload_scale above 1.0 rejected, naming the cap"
    (Error "workload_scale must be at most 1, not 0x1.0000000000001p+0")
    (Result.map ignore
       (Fleet.measure_request_of_body (measure_request ~workload_scale:(Float.succ 1.0) ())));
  cb "workload_scale 1.0 decodes" true (decodes (measure_request ~workload_scale:1.0 ()));
  cb "unit_size 1 decodes" true
    (decodes (measure_request ~smarts:{ zero_unit with unit_size = 1 } ()));
  cb "a finite workload_scale decodes" true (decodes (measure_request ()))

(* An issue width below 1 is refused at decode, with a message, before
   anything is compiled for it. *)
let test_width_zero_point_rejected () =
  let error body =
    match Fleet.measure_request_of_body body with Ok _ -> None | Error e -> Some e
  in
  Alcotest.(check (option string)) "width 0 rejected"
    (Some "issue width must be at least 1, not 0") (error (width_request 0));
  cb "width -2 rejected" true (Option.is_some (error (width_request (-2))));
  Alcotest.(check (option string)) "width 1 decodes" None (error (width_request 1))

(* An RUU of no entries never dispatches an instruction: refused at
   decode too, before a worker would spin on it. *)
let test_ruu_zero_point_rejected () =
  let error body =
    match Fleet.measure_request_of_body body with Ok _ -> None | Error e -> Some e
  in
  Alcotest.(check (option string)) "RUU size 0 rejected"
    (Some "RUU size must be at least 1, not 0") (error (ruu_request 0));
  cb "RUU size -4 rejected" true (Option.is_some (error (ruu_request (-4))));
  Alcotest.(check (option string)) "RUU size 1 decodes" None (error (ruu_request 1))

(* A load never issues from an L1 of negative latency, and a negative L2
   or memory latency gives meaningless timings: all three are refused at
   decode, and latency 0 decodes. *)
let test_negative_latency_point_rejected () =
  let error body =
    match Fleet.measure_request_of_body body with Ok _ -> None | Error e -> Some e
  in
  let typical = Emc_sim.Config.typical in
  Alcotest.(check (option string)) "L1 latency -3 rejected"
    (Some "L1 data-cache latency must not be negative, not -3") (error (dcache_lat_request (-3)));
  Alcotest.(check (option string)) "L2 latency -1 rejected"
    (Some "L2 latency must not be negative, not -1")
    (error (march_request { typical with l2_lat = -1 }));
  Alcotest.(check (option string)) "memory latency -100 rejected"
    (Some "memory latency must not be negative, not -100")
    (error (march_request { typical with mem_lat = -100 }));
  Alcotest.(check (option string)) "latencies of 0 decode" None
    (error (march_request { typical with dcache_lat = 0; l2_lat = 0; mem_lat = 0 }))

(* The worker answers the unit_size-0, width-0, RUU-size-0 and L1
   latency -3 bodies with a 400 and stays responsive. It is SIGKILLed at
   the end, so a worker pinned by a request fails this case instead of
   hanging it. *)
let test_unrunnable_measure_is_a_400 () =
  let sock = sock_path "spin" in
  let pid = fork_daemon (fun () -> Fleet.run_worker ~listen:(Fleet.Unix_sock sock) ()) in
  Fun.protect ~finally:(fun () -> kill_daemon pid; List.iter rm_f [ sock; sock ^ ".pid" ])
  @@ fun () ->
  wait_sock sock;
  List.iter
    (fun (what, body) ->
      match
        Http.call ~timeout:3.0 (Fleet.Unix_sock sock) ~meth:"POST" ~path:"/measure"
          ~headers:[ ("Content-Type", "application/json") ]
          ~body ()
      with
      | Ok r -> ci (what ^ ": structured rejection") 400 r.Http.status
      | Error e -> Alcotest.failf "/measure %s: %s" what (Http.error_to_string e))
    [ ("unit_size 0", measure_request ~smarts:zero_unit ()); ("width 0", width_request 0);
      ("RUU size 0", ruu_request 0); ("L1 latency -3", dcache_lat_request (-3)) ];
  match Http.call ~timeout:1.0 (Fleet.Unix_sock sock) ~meth:"GET" ~path:"/healthz" () with
  | Ok r -> ci "the worker still answers /healthz" 200 r.Http.status
  | Error e -> Alcotest.failf "/healthz after the rejected body: %s" (Http.error_to_string e)

(* ---------------- what a worker keeps ---------------- *)

(* [name]'s value in a worker's /metrics, or nan *)
let metric sock name =
  match Http.call ~timeout:5.0 (Fleet.Unix_sock sock) ~meth:"GET" ~path:"/metrics" () with
  | Error e -> Alcotest.failf "/metrics: %s" (Http.error_to_string e)
  | Ok r ->
      String.split_on_char '\n' r.Http.resp_body
      |> List.find_map (fun l -> Scanf.sscanf_opt l (name ^^ " %f") Fun.id)
      |> Option.value ~default:Float.nan

(* Six distinct workload scales through one worker leave a Measure for
   the 4 used last, and a scale that was evicted, asked again, answers
   the same bytes. *)
let test_worker_measures_bounded () =
  let sock = sock_path "lru" in
  let pid = fork_daemon (fun () -> Fleet.run_worker ~listen:(Fleet.Unix_sock sock) ()) in
  Fun.protect ~finally:(fun () -> kill_daemon pid; List.iter rm_f [ sock; sock ^ ".pid" ])
  @@ fun () ->
  wait_sock sock;
  let measure workload_scale =
    match
      Http.call ~timeout:60.0 (Fleet.Unix_sock sock) ~meth:"POST" ~path:"/measure"
        ~headers:[ ("Content-Type", "application/json") ]
        ~body:(measure_request ~workload_scale ()) ()
    with
    | Ok r when r.Http.status = 200 -> r.Http.resp_body
    | Ok r -> Alcotest.failf "/measure at %g: HTTP %d" workload_scale r.Http.status
    | Error e -> Alcotest.failf "/measure at %g: %s" workload_scale (Http.error_to_string e)
  in
  let scales = List.init 6 (fun i -> 0.01 +. (0.002 *. float_of_int i)) in
  let first = List.map measure scales |> List.hd in
  Alcotest.(check (float 0.0)) "a Measure kept for 4 signatures" 4.0
    (metric sock "emc_fleet_worker_measures");
  cs "an evicted signature answers the same bytes" first (measure (List.hd scales));
  Alcotest.(check (float 0.0)) "still 4" 4.0 (metric sock "emc_fleet_worker_measures")

(* ---------------- a worker whose Content-Length lies ---------------- *)

(* A stub worker that answers every /measure with a well-formed result
   body of wrong values (every triple 1, 2, 3) under a Content-Length
   off by [by] bytes: an overstated one is followed by a close, an
   understated one leaves the connection open for the next request. *)
let lying_worker path ~by =
  fork_daemon (fun () ->
      let lsock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind lsock (Unix.ADDR_UNIX path);
      Unix.listen lsock 8;
      let rec answer fd carry =
        match Http.read_request ~timeout:30.0 ~carry fd with
        | Error _ -> ()
        | Ok req ->
            let points =
              match Fleet.measure_request_of_body req.Http.body with
              | Ok mr -> Array.length mr.Fleet.mr_points
              | Error _ -> 1
            in
            let body =
              Fleet.result_body
                (Array.make points
                   { Measure.t_cycles = 1.0; t_energy = 2.0; t_code_size = 3.0 })
            in
            let reply =
              Printf.sprintf
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\
                 X-Request-Id: %s\r\n\r\n%s"
                (String.length body + by)
                (Option.value ~default:"" (Http.header req "x-request-id"))
                body
            in
            ignore (Unix.write_substring fd reply 0 (String.length reply));
            if by < 0 then answer fd carry
      in
      while true do
        match Unix.accept lsock with
        | fd, _ ->
            (try answer fd (ref "") with Unix.Unix_error _ -> ());
            (try Unix.close fd with Unix.Unix_error _ -> ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done)

(* Through the coordinator's collect: a reply whose Content-Length
   overstates its body before a close, and one that understates it, each
   fail the chunk. Alone, the stub fails the run with a Fleet_error
   within 5 s; beside a live worker its chunks are requeued, and the
   results are bit for bit the local ones, never the stub's. *)
let test_lying_worker_fails_its_chunk () =
  List.iter
    (fun by ->
      let stub = sock_path "liar" in
      let pid = lying_worker stub ~by in
      Fun.protect ~finally:(fun () -> kill_daemon pid; rm_f stub) @@ fun () ->
      wait_sock stub;
      let m = Measure.create (small_scale 1) in
      Fleet.attach m [ Fleet.Worker (Fleet.Unix_sock stub) ];
      let t0 = Unix.gettimeofday () in
      (match
         Measure.cycles_coded_many m (Emc_workloads.Registry.find "mcf")
           ~variant:Emc_workloads.Workload.Train (design_points 3)
       with
      | _ -> Alcotest.failf "a Content-Length off by %d returned results" by
      | exception Fleet.Fleet_error msg ->
          let took = Unix.gettimeofday () -. t0 in
          cb (Printf.sprintf "off by %d, alone: Fleet_error in %.2f s (%s)" by took msg) true
            (took < 5.0));
      let retried0 = counter "fleet.retried" in
      with_worker (fun live -> run_through [ stub; live ]);
      cb (Printf.sprintf "off by %d, beside a live worker: its chunk requeued" by) true
        (counter "fleet.retried" > retried0))
    [ 25; -25 ]

(* ---------------- draining one's own child ---------------- *)

(* A zombie still answers [kill pid 0]: drain must reap a worker its
   caller forked instead of waiting out its timeout. *)
let test_drain_reaps_own_child () =
  let sock = sock_path "own" in
  let pidfile = sock ^ ".pid" in
  let pid = fork_daemon (fun () -> Fleet.run_worker ~listen:(Fleet.Unix_sock sock) ()) in
  Fun.protect ~finally:(fun () -> kill_daemon pid; List.iter rm_f [ sock; pidfile ])
  @@ fun () ->
  wait_sock sock;
  let deadline = Unix.gettimeofday () +. 10.0 in
  while not (Sys.file_exists pidfile) do
    if Unix.gettimeofday () > deadline then Alcotest.fail "the worker wrote no pidfile";
    ignore (Unix.select [] [] [] 0.02)
  done;
  let t0 = Unix.gettimeofday () in
  (match Emc_par.Proc.drain ~timeout:10.0 ~pidfile () with
  | Ok p -> ci "drained the forked worker" pid p
  | Error e -> Alcotest.failf "drain: %s" e);
  cb "within a few seconds" true (Unix.gettimeofday () -. t0 < 5.0);
  cb "no zombie left" true
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
    | _ -> false)

(* ---------------- the wire round trip ---------------- *)

(* Points from the parameter grid plus off-grid integers (fig3's unroll
   factors and cache sizes are such), every float of a triple, the
   workload scale and the SMARTS target from a mix of ordinary values
   and -0, the smallest subnormal, max_float, +-infinity and NaNs of
   either sign. Every non-NaN float comes back bit-identical; a NaN comes
   back a NaN of the same sign (%h prints every NaN as nan or -nan, so
   its payload does not survive). A request holding an off-grid issue
   width or RUU size of 0, which no machine can run, must be refused, as
   must one whose workload scale is above the cap of 1.0. *)
let prop_wire_round_trip =
  let open QCheck2.Gen in
  let special =
    [ -0.0; 4e-324; Float.max_float; Float.infinity; Float.neg_infinity; Float.nan;
      Float.neg Float.nan ]
  in
  let value = frequency [ (3, float); (2, oneofl special) ] in
  let coord (s : Params.spec) =
    frequency [ (3, oneofa s.Params.levels); (1, map float_of_int (int_range 0 4096)) ]
  in
  let raw = flatten_a (Array.map coord Params.all_specs) in
  let gen =
    let+ points = array_size (int_range 1 8) raw
    and+ triples = array_size (int_range 0 8) (triple value value value)
    and+ workload_scale = oneof [ pfloat; oneofl [ 4e-324; Float.max_float; 0.05; 1.0 ] ]
    and+ target_ci = value
    and+ train = bool in
    (points, triples, workload_scale, target_ci, train)
  in
  let same f g =
    if Float.is_nan f then Float.is_nan g && Float.sign_bit f = Float.sign_bit g
    else Int64.bits_of_float f = Int64.bits_of_float g
  in
  let same_all a b = Array.length a = Array.length b && Array.for_all2 same a b in
  QCheck2.Test.make ~name:"wire: measure and result bodies round-trip" ~count:500 gen
    (fun (raws, triples, workload_scale, target_ci, train) ->
      let workload_scale =
        if Float.is_finite workload_scale && workload_scale > 0.0 then workload_scale else 1.0
      in
      let points = Array.map Params.split_raw raws in
      let smarts = { Emc_sim.Smarts.default_params with target_ci } in
      let variant = if train then Emc_workloads.Workload.Train else Emc_workloads.Workload.Ref in
      let body =
        Fleet.measure_body (Emc_workloads.Registry.find "mcf") ~variant ~workload_scale
          ~smarts:(Some smarts) points
      in
      let raw_of (f, m) = Params.raw_of f m in
      let runnable (_, (m : Emc_sim.Config.t)) = m.issue_width >= 1 && m.ruu_size >= 1 in
      let request_ok =
        match Fleet.measure_request_of_body body with
        | Error _ when (not (Array.for_all runnable points)) || workload_scale > 1.0 -> true
        | Error e -> QCheck2.Test.fail_reportf "request did not decode: %s" e
        | Ok mr ->
            Array.for_all runnable points
            && workload_scale <= 1.0
            && mr.Fleet.mr_variant = variant
            && same mr.Fleet.mr_workload_scale workload_scale
            && (match mr.Fleet.mr_smarts with
               | Some s -> same s.Emc_sim.Smarts.target_ci target_ci
               | None -> false)
            && same_all
                 (Array.concat (Array.to_list (Array.map raw_of mr.Fleet.mr_points)))
                 (Array.concat (Array.to_list (Array.map raw_of points)))
      in
      let ts =
        Array.map
          (fun (c, e, s) -> { Measure.t_cycles = c; t_energy = e; t_code_size = s })
          triples
      in
      let flat t =
        Array.concat
          (Array.to_list
             (Array.map
                (fun (t : Measure.triple) -> [| t.t_cycles; t.t_energy; t.t_code_size |])
                t))
      in
      let result_ok =
        match Fleet.triples_of_body ~expect:(Array.length ts) (Fleet.result_body ts) with
        | Error e -> QCheck2.Test.fail_reportf "result did not decode: %s" e
        | Ok back -> same_all (flat back) (flat ts)
      in
      request_ok && result_ok)

(* A SIGTERM sent the moment a daemon's file appears (the store's
   socket, the worker's pidfile), found by spinning with no sleep, still
   ends it through its cleanup: exit 0, with no socket and no pidfile
   left, at each of 10 starts. [delay i] seconds more are spun away
   before start [i]'s SIGTERM. *)
let stop_at_startup ?(what = "start") ?(delay = fun _ -> 0.0) ~run ~watch () =
  for i = 1 to 10 do
    let sock = sock_path "start" in
    let pid = fork_daemon (fun () -> run (Fleet.Unix_sock sock)) in
    Fun.protect ~finally:(fun () -> List.iter rm_f [ sock; sock ^ ".pid" ]) @@ fun () ->
    let deadline = Unix.gettimeofday () +. 10.0 in
    while not (Sys.file_exists (watch sock)) do
      if Unix.gettimeofday () > deadline then begin
        stop_daemon pid;
        Alcotest.failf "%s %d: no %s after 10 s" what i (watch sock)
      end
    done;
    let t = Unix.gettimeofday () +. delay i in
    while Unix.gettimeofday () < t do () done;
    Unix.kill pid Sys.sigterm;
    cb (Printf.sprintf "%s %d exits 0" what i) true
      (Helpers.stop_daemon pid = Some (Unix.WEXITED 0));
    cb (Printf.sprintf "%s %d leaves no socket" what i) false (Sys.file_exists sock);
    cb (Printf.sprintf "%s %d leaves no pidfile" what i) false (Sys.file_exists (sock ^ ".pid"))
  done

let test_store_stop_at_startup () =
  stop_at_startup ~run:(fun listen -> Fleet.run_store ~listen ()) ~watch:Fun.id ()

(* A registered worker forks its heartbeater after its pidfile appears,
   and the SIGTERM can land in the child before it resets TERM to the
   default action. Its 10 starts spread the SIGTERM over the first
   0.9 ms, in steps of 0.1 ms, to cover that fork. *)
let test_worker_stop_at_startup () =
  let pidfile s = s ^ ".pid" in
  stop_at_startup ~run:(fun listen -> Fleet.run_worker ~listen ()) ~watch:pidfile ();
  let store_path = sock_path "sstore" in
  let store_pid =
    fork_daemon (fun () -> Fleet.run_store ~listen:(Fleet.Unix_sock store_path) ())
  in
  Fun.protect ~finally:(fun () -> stop_daemon store_pid) @@ fun () ->
  wait_sock store_path;
  stop_at_startup ~what:"registered start" ~watch:pidfile
    ~delay:(fun i -> float_of_int (i - 1) *. 1e-4)
    ~run:(fun listen -> Fleet.run_worker ~register:(Fleet.Unix_sock store_path) ~listen ())
    ()

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
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 24 |]) prop_schedules;
    ("stalled worker: a cut-off head blocks no one", `Slow, test_stalled_head_blocks_no_one);
    ("unrunnable /measure bodies are rejected", `Quick, test_unrunnable_measure_rejected);
    ("a width-0 /measure point is rejected", `Quick, test_width_zero_point_rejected);
    ("an RUU-size-0 /measure point is rejected", `Quick, test_ruu_zero_point_rejected);
    ("a negative-latency /measure point is rejected", `Quick, test_negative_latency_point_rejected);
    ("unrunnable /measure is a 400, the worker stays up", `Quick,
     test_unrunnable_measure_is_a_400);
    ("drain reaps a worker its caller forked", `Quick, test_drain_reaps_own_child);
    ("worker keeps 4 signatures' Measures", `Quick, test_worker_measures_bounded);
    ("lying Content-Length fails the chunk", `Slow, test_lying_worker_fails_its_chunk);
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 25 |]) prop_wire_round_trip;
    ("store: SIGTERM as its socket appears, exit 0", `Quick, test_store_stop_at_startup);
    ("worker: SIGTERM as its pidfile appears, exit 0", `Quick, test_worker_stop_at_startup);
  ]
