open Emc_core
open Emc_workloads
module Json = Emc_obs.Json
module Log = Emc_obs.Log
module Metrics = Emc_obs.Metrics
module Http = Emc_serve.Http
module Server = Emc_serve.Server

(** Distributed measurement over the serve substrate (see fleet.mli). *)

exception Fleet_error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Fleet_error msg)) fmt

(* ---------------- addresses ---------------- *)

type addr = Http.addr = Tcp of string * int | Unix_sock of string

(* A fleet entry is either one worker's address or, prefixed with '@', a
   membership endpoint (a fleet-store) the coordinator polls for workers
   that register themselves — elastic membership instead of a static
   list. *)
type source = Worker of addr | Members of addr

let parse_source s =
  let s = String.trim s in
  if String.length s > 0 && s.[0] = '@' then
    match Http.parse_addr (String.sub s 1 (String.length s - 1)) with
    | Ok a -> Ok (Members a)
    | Error e -> Error ("membership endpoint " ^ e)
  else Result.map (fun a -> Worker a) (Http.parse_addr s)

let parse_fleet s =
  let parts =
    String.split_on_char ',' s |> List.map String.trim |> List.filter (fun p -> p <> "")
  in
  if parts = [] then Error "empty fleet specification"
  else
    List.fold_right
      (fun part acc ->
        match (acc, parse_source part) with
        | Error _, _ -> acc
        | _, Error e -> Error e
        | Ok srcs, Ok a -> Ok (a :: srcs))
      parts (Ok [])

(* ---------------- metrics ---------------- *)

(* coordinator side *)
let m_dispatched = Metrics.counter "fleet.dispatched"
let m_points = Metrics.counter "fleet.points_dispatched"
let m_retried = Metrics.counter "fleet.retried"
let m_failures = Metrics.counter "fleet.worker_failures"
let m_steals = Metrics.counter "fleet.steals"
let m_joined = Metrics.counter "fleet.workers_joined"
let m_lost = Metrics.counter "fleet.workers_lost"
let m_prefilled = Metrics.counter "fleet.store_prefilled"
let m_store_puts = Metrics.counter "fleet.store_puts"

(* worker side *)
let m_measured = Metrics.counter "fleet.points_measured"
let m_heartbeats = Metrics.counter "fleet.heartbeats"

(* store side *)
let m_lookup_hits = Metrics.counter "fleet.store.lookup_hits"
let m_lookup_misses = Metrics.counter "fleet.store.lookup_misses"
let m_added = Metrics.counter "fleet.store.added"
let g_keys = Metrics.gauge "fleet.store.keys"
let m_registered = Metrics.counter "fleet.store.registrations"
let m_expired = Metrics.counter "fleet.store.members_expired"
let g_members = Metrics.gauge "fleet.store.members"

(* ---------------- wire codec ---------------- *)

(* Design points travel as the raw 25-vector of [Params.raw_of] (every
   flag/march field, including off-grid values like fig3's custom
   heuristics) and every float as a %h hex literal — both lossless, which
   is what makes remote measurement bit-identical to local. *)

let measure_schema = "emc-fleet-measure/1"
let result_schema = "emc-fleet-result/1"

let point_to_json (flags, march) =
  Json.List (Array.to_list (Array.map Json.hex (Params.raw_of flags march)))

let floats_of_json = function
  | Json.List xs -> (
      let rec go acc = function
        | [] -> Some (List.rev acc)
        | x :: rest -> (
            match Json.hex_of x with Some f -> go (f :: acc) rest | None -> None)
      in
      go [] xs)
  | _ -> None

let point_of_json j =
  match floats_of_json j with
  | Some raw when List.length raw = Params.n_all ->
      Ok (Params.split_raw (Array.of_list raw))
  | Some raw ->
      Error (Printf.sprintf "point has %d values; want %d" (List.length raw) Params.n_all)
  | None -> Error "point must be a list of (hex-float) numbers"

let smarts_to_json = function
  | None -> Json.Null
  | Some (p : Emc_sim.Smarts.params) ->
      Json.Obj
        [ ("unit_size", Json.Int p.Emc_sim.Smarts.unit_size);
          ("warmup", Json.Int p.Emc_sim.Smarts.warmup);
          ("interval", Json.Int p.Emc_sim.Smarts.interval);
          ("target_ci", Json.hex p.Emc_sim.Smarts.target_ci);
          ("max_refinements", Json.Int p.Emc_sim.Smarts.max_refinements) ]

let smarts_of_json j =
  match j with
  | Json.Null -> Ok None
  | Json.Obj _ -> (
      let int k = match Json.member k j with Some (Json.Int i) -> Some i | _ -> None in
      let flt k = Option.bind (Json.member k j) Json.hex_of in
      match (int "unit_size", int "warmup", int "interval", flt "target_ci",
             int "max_refinements")
      with
      | Some unit_size, Some warmup, Some interval, Some target_ci, Some max_refinements ->
          Ok
            (Some
               { Emc_sim.Smarts.unit_size; warmup; interval; target_ci; max_refinements })
      | _ -> Error "malformed smarts parameters")
  | _ -> Error "smarts must be an object or null"

let measure_body (w : Workload.t) ~variant ~workload_scale ~smarts points =
  Json.to_string
    (Json.Obj
       [ ("schema", Json.Str measure_schema);
         ("workload", Json.Str w.Workload.name);
         ("variant", Json.Str (Workload.variant_name variant));
         ("workload_scale", Json.hex workload_scale);
         ("smarts", smarts_to_json smarts);
         ("points", Json.List (Array.to_list (Array.map point_to_json points))) ])

type measure_request = {
  mr_workload : string;
  mr_variant : Workload.variant;
  mr_workload_scale : float;
  mr_smarts : Emc_sim.Smarts.params option;
  mr_points : (Emc_opt.Flags.t * Emc_sim.Config.t) array;
}

let ( let* ) r f = Result.bind r f

let measure_request_of_body body =
  let* j = Json.parse body in
  let* () =
    match Json.member "schema" j with
    | Some (Json.Str s) when s = measure_schema -> Ok ()
    | Some (Json.Str s) -> Error (Printf.sprintf "unsupported schema %S" s)
    | _ -> Error (Printf.sprintf "missing schema (want %S)" measure_schema)
  in
  let* mr_workload =
    match Json.member "workload" j with
    | Some (Json.Str s) -> Ok s
    | _ -> Error "missing workload"
  in
  let* mr_variant =
    match Json.member "variant" j with
    | Some (Json.Str "train") -> Ok Workload.Train
    | Some (Json.Str "ref") -> Ok Workload.Ref
    | Some (Json.Str s) -> Error (Printf.sprintf "unknown variant %S" s)
    | _ -> Error "missing variant"
  in
  let* mr_workload_scale =
    match Option.bind (Json.member "workload_scale" j) Json.hex_of with
    | Some f when f > 0.0 -> Ok f
    | _ -> Error "missing/invalid workload_scale"
  in
  let* mr_smarts =
    smarts_of_json (Option.value ~default:Json.Null (Json.member "smarts" j))
  in
  let* points =
    match Json.member "points" j with
    | Some (Json.List pts) ->
        List.fold_right
          (fun p acc ->
            let* acc = acc in
            let* pt = point_of_json p in
            Ok (pt :: acc))
          pts (Ok [])
    | _ -> Error "missing points"
  in
  if points = [] then Error "empty points"
  else
    Ok { mr_workload; mr_variant; mr_workload_scale; mr_smarts;
         mr_points = Array.of_list points }

let triple_to_json (t : Measure.triple) =
  Json.Obj
    [ ("cycles", Json.hex t.Measure.t_cycles);
      ("energy", Json.hex t.Measure.t_energy);
      ("code_size", Json.hex t.Measure.t_code_size) ]

let triple_of_json j =
  let f k = Option.bind (Json.member k j) Json.hex_of in
  match (f "cycles", f "energy", f "code_size") with
  | Some t_cycles, Some t_energy, Some t_code_size ->
      Ok { Measure.t_cycles; t_energy; t_code_size }
  | _ -> Error "malformed result triple"

let result_body triples =
  Json.to_string
    (Json.Obj
       [ ("schema", Json.Str result_schema);
         ("results", Json.List (Array.to_list (Array.map triple_to_json triples))) ])

let triples_of_body ~expect body =
  let* j = Json.parse body in
  let* results =
    match Json.member "results" j with
    | Some (Json.List rs) ->
        List.fold_right
          (fun r acc ->
            let* acc = acc in
            let* t = triple_of_json r in
            Ok (t :: acc))
          rs (Ok [])
    | _ -> Error "missing results"
  in
  if List.length results <> expect then
    Error (Printf.sprintf "%d results for %d points" (List.length results) expect)
  else Ok (Array.of_list results)

(* ---------------- daemons ---------------- *)

(* Both daemons serve their route table in-process on the shared
   multiplexed server (the store's table and the worker's memo must live
   in one process, so nothing is pre-forked): 64 MiB bodies, serve's
   512-connection cap, [timeout] as both read and idle timeout. Drain
   (SIGTERM/SIGINT, what `fleet-worker --drain` sends) finishes the
   request being handled, answers it with Connection: close and returns. *)
let bind ~name listen =
  let where = Http.addr_to_string listen in
  let addr =
    match Http.sockaddr_of_addr listen with
    | Ok a -> a
    | Error e -> fail "%s cannot listen on %s: %s" name where e
  in
  let lsock = Server.bind addr in
  Log.info ~src:name ~fields:[ ("listen", Json.Str where) ] "%s listening on %s" name where;
  (addr, lsock)

let serve ~name ~timeout listen (addr, lsock) routes =
  Server.run ~max_body:(64 * 1024 * 1024) ~read_timeout:timeout ~idle_timeout:timeout
    ~max_conns:512 ?access_log:(Sys.getenv_opt "EMC_ACCESS_LOG") (Server.table routes) lsock;
  Server.release addr lsock;
  Log.info ~src:name "%s on %s: graceful shutdown" name (Http.addr_to_string listen)

(* A POST endpoint: [parse] the JSON body (400 when it does not), then
   answer 200 with the JSON object [k] builds. *)
let json_route parse k (req : Http.request) b =
  match Result.bind (Json.parse req.Http.body) parse with
  | Error msg -> Server.error b 400 "bad_request" msg
  | Ok x -> Server.reply b 200 (k x)

(* ---------------- content-addressed result store ---------------- *)

let run_store ?file ~listen () =
  let listener = bind ~name:"fleet-store" listen in
  let table : (string, float) Hashtbl.t = Hashtbl.create 4096 in
  (match file with
  | None -> ()
  | Some path ->
      let loaded, skipped = Measure.cache_load table path in
      Log.info ~src:"fleet-store"
        ~fields:[ ("file", Json.Str path); ("keys", Json.Int (Hashtbl.length table)) ]
        "store file %s: %d entries loaded, %d skipped" path loaded skipped);
  let persist = Option.map Measure.cache_open_append file in
  Metrics.set g_keys (float_of_int (Hashtbl.length table));
  (* Elastic membership: workers heartbeat POST /register with their
     advertised address and a TTL; the coordinator polls GET /members. A
     worker whose heartbeats stop (SIGKILL, network loss) ages out after
     its TTL; a draining worker removes itself with POST /deregister.
     Membership is in-memory only — a restarted store starts empty and the
     next round of heartbeats (one per worker per couple of seconds)
     repopulates it. *)
  let members : (string, float * float) Hashtbl.t = Hashtbl.create 16 in
  let expire_members now =
    let dead =
      Hashtbl.fold
        (fun a (beat, ttl) acc -> if now -. beat > ttl then a :: acc else acc)
        members []
    in
    List.iter
      (fun a ->
        Hashtbl.remove members a;
        Metrics.incr m_expired;
        Log.info ~src:"fleet-store"
          ~fields:[ ("worker", Json.Str a) ]
          "member %s aged out (missed heartbeats)" a)
      dead;
    Metrics.set g_members (float_of_int (Hashtbl.length members))
  in
  let register =
    json_route
      (fun j ->
        match (Json.member "addr" j, Option.bind (Json.member "ttl" j) Json.hex_of) with
        | Some (Json.Str a), Some ttl when a <> "" && ttl > 0.0 && ttl <= 3600.0 -> Ok (a, ttl)
        | Some (Json.Str a), None when a <> "" -> Ok (a, 6.0)
        | _ -> Error "want {\"addr\":ADDR,\"ttl\":HEXSECONDS} with 0 < ttl <= 3600")
      (fun (addr, ttl) ->
        let now = Unix.gettimeofday () in
        if not (Hashtbl.mem members addr) then
          Log.info ~src:"fleet-store" ~fields:[ ("worker", Json.Str addr) ]
            "member %s registered (ttl %.1fs)" addr ttl;
        Hashtbl.replace members addr (now, ttl);
        Metrics.incr m_registered;
        expire_members now;
        Json.Obj [ ("members", Json.Int (Hashtbl.length members)) ])
  in
  let deregister =
    json_route
      (fun j ->
        match Json.member "addr" j with
        | Some (Json.Str a) when a <> "" -> Ok a
        | _ -> Error "want {\"addr\":ADDR}")
      (fun addr ->
        let removed = Hashtbl.mem members addr in
        Hashtbl.remove members addr;
        if removed then
          Log.info ~src:"fleet-store" ~fields:[ ("worker", Json.Str addr) ]
            "member %s deregistered" addr;
        Metrics.set g_members (float_of_int (Hashtbl.length members));
        Json.Obj [ ("removed", Json.Bool removed) ])
  in
  let list_members _ b =
    let now = Unix.gettimeofday () in
    expire_members now;
    let workers =
      Hashtbl.fold (fun a (beat, _) acc -> (a, now -. beat) :: acc) members []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.map (fun (a, age) -> Json.Obj [ ("addr", Json.Str a); ("age", Json.hex age) ])
    in
    Server.reply b 200 (Json.Obj [ ("workers", Json.List workers) ])
  in
  let lookup =
    json_route
      (fun j ->
        match Json.member "keys" j with
        | Some (Json.List ks) ->
            List.fold_right
              (fun k acc ->
                let* acc = acc in
                match k with Json.Str s -> Ok (s :: acc) | _ -> Error "keys must be strings")
              ks (Ok [])
        | _ -> Error "missing keys")
      (fun keys ->
        let hits =
          List.filter_map
            (fun k ->
              match Hashtbl.find_opt table k with
              | Some v ->
                  Metrics.incr m_lookup_hits;
                  Some (k, Json.hex v)
              | None ->
                  Metrics.incr m_lookup_misses;
                  None)
            keys
        in
        Json.Obj [ ("results", Json.Obj hits) ])
  in
  let put =
    json_route
      (fun j ->
        match Json.member "entries" j with
        | Some (Json.List es) ->
            List.fold_right
              (fun e acc ->
                let* acc = acc in
                match (Json.member "k" e, Option.bind (Json.member "v" e) Json.hex_of) with
                | Some (Json.Str k), Some v -> Ok ((k, v) :: acc)
                | _ -> Error "entries must be {\"k\":KEY,\"v\":HEXFLOAT}")
              es (Ok [])
        | _ -> Error "missing entries")
      (fun entries ->
        let added =
          List.fold_left
            (fun n (k, v) ->
              if Hashtbl.mem table k then n
              else begin
                Hashtbl.replace table k v;
                (match persist with
                | Some oc ->
                    output_string oc (Measure.cache_line k v);
                    output_char oc '\n'
                | None -> ());
                n + 1
              end)
            0 entries
        in
        (match persist with Some oc -> flush oc | None -> ());
        Metrics.add m_added added;
        Metrics.set g_keys (float_of_int (Hashtbl.length table));
        Json.Obj [ ("added", Json.Int added) ])
  in
  let get (req : Http.request) b =
    match List.assoc_opt "k" req.Http.query with
    | None -> Server.error b 400 "bad_request" "missing ?k="
    | Some k -> (
        match Hashtbl.find_opt table k with
        | Some v ->
            Metrics.incr m_lookup_hits;
            Server.reply b 200 (Json.Obj [ ("k", Json.Str k); ("v", Json.hex v) ])
        | None ->
            Metrics.incr m_lookup_misses;
            Server.error b 404 "not_found" ("no result under key " ^ k))
  in
  let healthz _ b =
    Server.reply b 200
      (Json.Obj
         [ ("status", Json.Str "ok"); ("role", Json.Str "store");
           ("keys", Json.Int (Hashtbl.length table)) ])
  in
  serve ~name:"fleet-store" ~timeout:30.0 listen listener
    [ ("POST", "/register", register); ("POST", "/deregister", deregister);
      ("GET", "/members", list_members); ("POST", "/lookup", lookup); ("POST", "/put", put);
      ("GET", "/get", get); ("GET", "/healthz", healthz) ];
  Option.iter close_out persist

(* ---------------- store client ---------------- *)

let store_rpc ?(meth = "POST") ~timeout addr ~path ~body =
  match
    Http.call ~timeout addr ~meth ~path ~headers:[ ("Content-Type", "application/json") ] ~body ()
  with
  | Error e -> Error (Http.error_to_string e)
  | Ok resp when resp.Http.status = 200 -> Ok resp.Http.resp_body
  | Ok resp -> Error (Printf.sprintf "store returned HTTP %d" resp.Http.status)

let store_lookup ~timeout addr keys =
  let body =
    Json.to_string
      (Json.Obj [ ("keys", Json.List (List.map (fun k -> Json.Str k) keys)) ])
  in
  let* body = store_rpc ~timeout addr ~path:"/lookup" ~body in
  let* j = Json.parse body in
  match Json.member "results" j with
  | Some (Json.Obj kvs) ->
      Ok (List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.hex_of v)) kvs)
  | _ -> Error "store lookup: missing results"

let store_put ~timeout addr entries =
  let body =
    Json.to_string
      (Json.Obj
         [ ( "entries",
             Json.List
               (List.map
                  (fun (k, v) -> Json.Obj [ ("k", Json.Str k); ("v", Json.hex v) ])
                  entries) ) ])
  in
  let* body = store_rpc ~timeout addr ~path:"/put" ~body in
  let* j = Json.parse body in
  match Json.member "added" j with
  | Some (Json.Int n) -> Ok n
  | _ -> Error "store put: missing added"

(* ---------------- membership client ---------------- *)

(* Bounds a worker's heartbeat and deregister RPCs to its store. *)
let membership_timeout = 10.0

let register_rpc addr ~advertise ~ttl =
  let body =
    Json.to_string (Json.Obj [ ("addr", Json.Str advertise); ("ttl", Json.hex ttl) ])
  in
  Result.map (fun _ -> ()) (store_rpc ~timeout:membership_timeout addr ~path:"/register" ~body)

let deregister_rpc addr ~advertise =
  let body = Json.to_string (Json.Obj [ ("addr", Json.Str advertise) ]) in
  Result.map (fun _ -> ())
    (store_rpc ~timeout:membership_timeout addr ~path:"/deregister" ~body)

let members ?(timeout = 10.0) addr =
  let* body = store_rpc ~meth:"GET" ~timeout addr ~path:"/members" ~body:"" in
  let* j = Json.parse body in
  match Json.member "workers" j with
  | Some (Json.List ws) ->
      List.fold_right
        (fun w acc ->
          let* acc = acc in
          match Json.member "addr" w with
          | Some (Json.Str a) ->
              let age = Option.value ~default:0.0 (Option.bind (Json.member "age" w) Json.hex_of) in
              Ok ((a, age) :: acc)
          | _ -> Error "members: entries must carry addr")
        ws (Ok [])
  | _ -> Error "members: missing workers"

(* ---------------- worker daemon ---------------- *)

(* The heartbeater: a tiny forked child that re-registers the worker with
   the membership endpoint every [interval] seconds (TTL 3x that), so the
   registration survives while the worker is deep in a long chunk. It
   exits by itself when orphaned — a SIGKILLed worker must age out of the
   membership, not be kept alive by a zombie heartbeat. *)
let start_heartbeater ~store ~advertise ~interval =
  let parent = Unix.getpid () in
  match Unix.fork () with
  | 0 ->
      Sys.set_signal Sys.sigterm Sys.Signal_default;
      Sys.set_signal Sys.sigint Sys.Signal_default;
      let rec loop () =
        if Unix.getppid () <> parent then Unix._exit 0;
        (match register_rpc store ~advertise ~ttl:(3.0 *. interval) with
        | Ok () -> Metrics.incr m_heartbeats
        | Error e ->
            Log.warn ~src:"fleet-worker" "heartbeat to %s failed: %s" (Http.addr_to_string store)
              e);
        (try ignore (Unix.select [] [] [] interval)
         with Unix.Unix_error (Unix.EINTR, _, _) -> ());
        loop ()
      in
      (try loop () with _ -> ());
      Unix._exit 0
  | pid -> pid

let default_pidfile = function Unix_sock p -> Some (p ^ ".pid") | Tcp _ -> None

let run_worker ?(jobs = 1) ?cache_file ?register ?advertise ?(heartbeat = 2.0) ?pidfile
    ~listen () =
  (* one Measure per (workload_scale, smarts) signature: the memo persists
     across requests, so repeated corner points across batches and the
     energy/code-size re-reads cost nothing *)
  let measures : (string, Measure.t) Hashtbl.t = Hashtbl.create 4 in
  let measure_for ~workload_scale ~smarts =
    let key =
      Json.to_string
        (Json.Obj
           [ ("ws", Json.hex workload_scale); ("smarts", smarts_to_json smarts) ])
    in
    match Hashtbl.find_opt measures key with
    | Some m -> m
    | None ->
        let scale =
          { Scale.quick with Scale.name = "fleet"; workload_scale; smarts; jobs }
        in
        let m = Measure.create ?cache_file scale in
        Hashtbl.replace measures key m;
        m
  in
  let handle_measure (req : Http.request) b =
    match measure_request_of_body req.Http.body with
    | Error msg -> Server.error b 400 "bad_request" msg
    | Ok mr -> (
        match Registry.find mr.mr_workload with
        | exception Invalid_argument msg -> Server.error b 400 "unknown_workload" msg
        | w ->
            Metrics.add m_measured (Array.length mr.mr_points);
            let m =
              measure_for ~workload_scale:mr.mr_workload_scale ~smarts:mr.mr_smarts
            in
            let variant = mr.mr_variant in
            let cycles = Measure.respond_many ~response:Cycles m w ~variant mr.mr_points in
            let energy = Measure.respond_many ~response:Energy m w ~variant mr.mr_points in
            let code = Measure.respond_many ~response:CodeSize m w ~variant mr.mr_points in
            let triples =
              Array.init (Array.length mr.mr_points) (fun i ->
                  { Measure.t_cycles = cycles.(i); t_energy = energy.(i);
                    t_code_size = code.(i) })
            in
            Buffer.add_string b (result_body triples);
            (200, "application/json"))
  in
  let healthz _ b =
    Server.reply b 200
      (Json.Obj
         [ ("status", Json.Str "ok"); ("role", Json.Str "worker"); ("jobs", Json.Int jobs);
           ("workloads", Json.List (List.map (fun n -> Json.Str n) Registry.names)) ])
  in
  let listener = bind ~name:"fleet-worker" listen in
  let advertise = match advertise with Some a -> a | None -> Http.addr_to_string listen in
  let pidfile = match pidfile with Some _ as p -> p | None -> default_pidfile listen in
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc (string_of_int (Unix.getpid ()));
      output_char oc '\n';
      close_out oc)
    pidfile;
  let hb =
    Option.map (fun store -> start_heartbeater ~store ~advertise ~interval:heartbeat) register
  in
  (* measurement chunks can run for minutes: long read and idle timeouts
     keep an idle keep-alive coordinator connection from being dropped
     mid-run *)
  serve ~name:"fleet-worker" ~timeout:3600.0 listen listener
    [ ("POST", "/measure", handle_measure); ("GET", "/healthz", healthz) ];
  Option.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    hb;
  Option.iter
    (fun saddr ->
      match deregister_rpc saddr ~advertise with
      | Ok () -> ()
      | Error e -> Log.warn ~src:"fleet-worker" "deregister failed: %s" e)
    register;
  Option.iter (fun path -> try Sys.remove path with Sys_error _ -> ()) pidfile

(* Graceful scale-down, the client side of `fleet-worker --drain`: SIGTERM
   the worker named by its pidfile and wait for the process to exit. The
   worker finishes its in-flight request, deregisters, removes its pidfile
   and exits 0; any chunks still pipelined behind the in-flight one are
   requeued by the coordinator when the connection closes — nothing is
   lost, the membership just shrinks by one. *)
let drain ?(timeout = 120.0) ~pidfile () =
  match open_in pidfile with
  | exception Sys_error e -> Error (Printf.sprintf "no worker pidfile: %s" e)
  | ic -> (
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      match int_of_string_opt (String.trim line) with
      | None -> Error (Printf.sprintf "%s: malformed pid %S" pidfile line)
      | Some pid -> (
          match Unix.kill pid Sys.sigterm with
          | exception Unix.Unix_error (Unix.ESRCH, _, _) ->
              Error (Printf.sprintf "no such process %d (stale pidfile %s)" pid pidfile)
          | exception Unix.Unix_error (e, _, _) ->
              Error (Printf.sprintf "kill %d: %s" pid (Unix.error_message e))
          | () ->
              let deadline = Unix.gettimeofday () +. timeout in
              let rec wait () =
                match Unix.kill pid 0 with
                | exception Unix.Unix_error (Unix.ESRCH, _, _) -> Ok pid
                | _ | (exception Unix.Unix_error _) ->
                    if Unix.gettimeofday () > deadline then
                      Error
                        (Printf.sprintf "worker %d still running after %.0fs" pid timeout)
                    else begin
                      (try ignore (Unix.select [] [] [] 0.05)
                       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
                      wait ()
                    end
              in
              wait ()))

(* ---------------- coordinator ---------------- *)

type options = {
  chunk : int;
  depth : int;
  connect_timeout : float;
  read_timeout : float;
  steal_after : float;
  max_attempts : int;
  poll_interval : float;
  store_timeout : float;
}

let default_options =
  { chunk = 0; depth = 1; connect_timeout = 5.0; read_timeout = 600.0; steal_after = 30.0;
    max_attempts = 3; poll_interval = 1.0; store_timeout = 10.0 }

(* Fixed-slice chunk plan over [n] work items: (start, length) slices in
   order, every index covered exactly once, no empty chunks, for every
   degenerate shape — n smaller than the worker count, n = 1, a requested
   chunk size larger than n. [chunk = 0] sizes automatically: ~4 chunks
   per worker bounds the straggler tail without drowning small batches in
   per-request overhead. A negative chunk is a caller bug, loudly. *)
let chunk_plan ~chunk ~nworkers ~n =
  if chunk < 0 then fail "chunk size must be positive, not %d (0 = auto)" chunk;
  if n < 0 then fail "negative work array length %d" n;
  if n = 0 then []
  else begin
    let nworkers = max 1 nworkers in
    let csize =
      if chunk > 0 then chunk
      else max 1 (min 32 ((n + (4 * nworkers) - 1) / (4 * nworkers)))
    in
    List.init ((n + csize - 1) / csize) (fun i ->
        let start = i * csize in
        (start, min csize (n - start)))
  end

(* How long the coordinator may sleep: until the nearest head-of-pipeline
   chunk deadline or steal timer, or the next membership poll — computed,
   never a fixed busy-poll tick (an idle-but-waiting coordinator used to
   spin at 20 Hz re-deciding nothing). [heads] are the start times of each
   worker's head-of-pipeline dispatch; only heads have ticking clocks.
   Events already due resolve to a short wake so the caller handles them
   on the next iteration; an event that is due but cannot fire (a steal
   timer with no idle worker) drops out of the candidate set rather than
   clamping every sleep to near zero. *)
let next_wake ~now ~read_timeout ~steal_after ?poll_at heads =
  let cands =
    (match poll_at with Some t -> [ t ] | None -> [])
    @ List.concat_map (fun s -> [ s +. read_timeout; s +. steal_after ]) heads
  in
  match cands with
  | [] -> 60.0
  | _ -> (
      match List.filter (fun t -> t > now) cands with
      | [] -> 0.05
      | future -> min 60.0 (max 0.001 (List.fold_left min infinity future -. now)))

type chunk_state = {
  c_id : int;
  c_slots : int array;  (** result index of each of this chunk's points *)
  c_points : (Emc_opt.Flags.t * Emc_sim.Config.t) array;
  c_body : string;  (** the serialized /measure request, built once *)
  mutable c_done : bool;
  mutable c_attempts : int;  (** dispatches so far (retries + steals included) *)
  mutable c_running : int;  (** live dispatches (2 while a steal races the original) *)
}

(* One outstanding request on a worker's pipeline. Deadlines and steal
   timers consult [d_started], which is reset when the dispatch reaches
   the head of the pipeline: a request queued behind a long chunk is not
   running yet, and timing it from dispatch would fail healthy workers
   under head-of-line blocking. *)
type dispatch = { d_chunk : chunk_state; mutable d_started : float }

type worker_state = {
  w_addr : addr;
  w_key : string;  (** [Http.addr_to_string w_addr] — identity for membership *)
  w_from_members : bool;  (** discovered via a membership poll, not --fleet *)
  mutable w_fd : Unix.file_descr option;  (** kept alive across chunks *)
  w_inflight : dispatch Queue.t;  (** pipelined dispatches, response order *)
  w_inb : Buffer.t;  (** response bytes read but not yet framed *)
  mutable w_need : int;  (** length [w_inb] must reach before the next parse *)
  mutable w_dead : bool;
}

let all_keys (w : Workload.t) ~variant points =
  Array.to_list points
  |> List.concat_map (fun p ->
         let kc, ke, ks = Measure.triple_keys w ~variant p in
         [ kc; ke; ks ])

(* Shard one respond_many miss batch across the fleet. [work] is already
   deduplicated in first-occurrence order by Measure.respond_many; chunks
   carry the result index of every point ([c_slots]), so every result
   lands at its input index and the merged array is independent of
   membership, chunking, and arrival order.

   Three things happen before any dispatch: membership sources are polled
   once (so an elastic fleet's initial worker set is known), the shared
   store is consulted once for every key of every point (fully-stored
   points never reach a worker), and the remaining points are sliced into
   chunks. The dispatch loop then keeps up to [opts.depth] requests
   outstanding per worker, re-polls membership every [opts.poll_interval],
   and sleeps exactly until the next deadline/steal/poll event. The store
   (the first membership source) is fed as each chunk first completes. *)
let respond_batch opts sources (scale : Scale.t) (w : Workload.t) ~variant
    (work : (Emc_opt.Flags.t * Emc_sim.Config.t) array) =
  if opts.depth < 1 then fail "pipeline depth must be at least 1, not %d" opts.depth;
  let n = Array.length work in
  let results : Measure.triple option array = Array.make n None in
  let static_addrs =
    List.filter_map (function Worker a -> Some a | Members _ -> None) sources
  in
  let member_sources =
    List.filter_map (function Members a -> Some a | Worker _ -> None) sources
  in
  let store = match member_sources with a :: _ -> Some a | [] -> None in
  let workers = ref [] in
  let known : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let add_worker ~from_members a =
    let key = Http.addr_to_string a in
    if not (Hashtbl.mem known key) then begin
      (* never revive an addr within a batch: a worker that failed and
         re-registered before the next poll would silently burn the
         retry budget of every chunk it keeps failing *)
      Hashtbl.add known key ();
      workers :=
        !workers
        @ [ { w_addr = a; w_key = key; w_from_members = from_members; w_fd = None;
              w_inflight = Queue.create (); w_inb = Buffer.create 4096; w_need = 1;
              w_dead = false } ];
      if from_members then begin
        Metrics.incr m_joined;
        Log.info ~src:"fleet" ~fields:[ ("worker", Json.Str key) ] "worker %s joined" key
      end
    end
  in
  List.iter (add_worker ~from_members:false) static_addrs;
  let total = ref 0 in
  let completed = ref 0 in
  let pending : chunk_state Queue.t = Queue.create () in
  let close_fd wk =
    (match wk.w_fd with
    | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
    | None -> ());
    wk.w_fd <- None;
    Buffer.clear wk.w_inb;
    wk.w_need <- 1
  in
  let fail_worker wk reason =
    Log.warn ~src:"fleet" ~fields:[ ("worker", Json.Str wk.w_key) ]
      "worker %s failed: %s" wk.w_key reason;
    close_fd wk;
    wk.w_dead <- true;
    Metrics.incr m_failures;
    (* the whole pipeline dies with the connection: responses are matched
       to dispatches by queue order, so nothing behind a failure is
       trustworthy. Each chunk requeues only when no twin is racing; if
       the twin later fails too, it requeues then. *)
    while not (Queue.is_empty wk.w_inflight) do
      let d = Queue.pop wk.w_inflight in
      let c = d.d_chunk in
      c.c_running <- c.c_running - 1;
      if (not c.c_done) && c.c_running = 0 then begin
        if c.c_attempts >= opts.max_attempts then
          fail "chunk %d failed %d times (last worker: %s: %s); giving up" c.c_id
            c.c_attempts wk.w_key reason;
        Metrics.incr m_retried;
        Queue.push c pending
      end
    done
  in
  (* Elastic membership: the union of every source's register table is the
     fleet. New addrs join mid-batch and immediately soak up pending
     chunks; a members-sourced worker absent from a fully successful poll
     has drained or aged out — fail it so its in-flight chunks requeue.
     Leave detection is skipped when any poll failed (a flaky store must
     not look like a mass worker death); static --fleet workers are never
     removed by polling. *)
  let refresh_members () =
    let union : (string, unit) Hashtbl.t = Hashtbl.create 16 in
    let all_ok = ref true in
    List.iter
      (fun src ->
        match members ~timeout:opts.store_timeout src with
        | Error e ->
            all_ok := false;
            Log.warn ~src:"fleet" "membership poll of %s failed: %s" (Http.addr_to_string src) e
        | Ok ms -> List.iter (fun (a, _) -> Hashtbl.replace union a ()) ms)
      member_sources;
    Hashtbl.iter
      (fun a () ->
        match Http.parse_addr a with
        | Ok addr -> add_worker ~from_members:true addr
        | Error e -> Log.warn ~src:"fleet" "ignoring advertised worker %S: %s" a e)
      union;
    if !all_ok then
      List.iter
        (fun wk ->
          if wk.w_from_members && (not wk.w_dead) && not (Hashtbl.mem union wk.w_key)
          then begin
            Metrics.incr m_lost;
            fail_worker wk "deregistered or aged out of membership"
          end)
        !workers
  in
  let dispatch wk c =
    c.c_attempts <- c.c_attempts + 1;
    c.c_running <- c.c_running + 1;
    (* queue the dispatch before writing: a failed write reaches
       fail_worker with the chunk already in flight, so it requeues *)
    Queue.push { d_chunk = c; d_started = Unix.gettimeofday () } wk.w_inflight;
    Metrics.incr m_dispatched;
    Metrics.add m_points (Array.length c.c_points);
    let conn =
      match wk.w_fd with
      | Some fd -> Ok fd
      | None ->
          let* sockaddr = Http.sockaddr_of_addr wk.w_addr in
          Result.map_error Http.error_to_string
            (Http.connect ~timeout:opts.connect_timeout sockaddr)
    in
    match conn with
    | Error e -> fail_worker wk ("connect: " ^ e)
    | Ok fd -> (
        wk.w_fd <- Some fd;
        match
          Http.write_request fd ~meth:"POST" ~path:"/measure"
            ~headers:
              [ ("Content-Type", "application/json");
                ("X-Request-Id", string_of_int c.c_id) ]
            ~body:c.c_body ()
        with
        | Ok () -> ()
        | Error e -> fail_worker wk ("request: " ^ Http.error_to_string e))
  in
  (* Feed the store as a chunk first completes, so a killed run resumes
     from it. A failed put is logged and costs only a later run's
     simulation. *)
  let feed_store c triples =
    Option.iter
      (fun saddr ->
        let values =
          Array.to_list triples
          |> List.concat_map (fun (t : Measure.triple) -> [ t.t_cycles; t.t_energy; t.t_code_size ])
        in
        let entries = List.combine (all_keys w ~variant c.c_points) values in
        match store_put ~timeout:opts.store_timeout saddr entries with
        | Ok added -> Metrics.add m_store_puts added
        | Error e -> Log.warn ~src:"fleet" "store put failed: %s" e)
      store
  in
  let settle wk (resp : Http.response) =
    let c = (Queue.peek wk.w_inflight).d_chunk in
    if resp.Http.status <> 200 then
      (* the request is deterministic: a structured rejection would
         repeat on every worker, so fail the batch loudly instead of
         retrying it to death *)
      fail "worker %s rejected the batch: HTTP %d %s" wk.w_key resp.Http.status
        (String.sub resp.Http.resp_body 0 (min 200 (String.length resp.Http.resp_body)))
    else
      match Http.response_header resp "x-request-id" with
      | Some id when id <> string_of_int c.c_id ->
          (* the worker's server echoes the request id, which is the chunk
             id; a mismatch means the pipeline lost sync and every queued
             pairing is suspect *)
          fail_worker wk (Printf.sprintf "pipeline desync: got chunk %s, expected %d" id c.c_id)
      | _ -> (
          match triples_of_body ~expect:(Array.length c.c_points) resp.Http.resp_body with
          | Error msg -> fail_worker wk ("bad response: " ^ msg)
          | Ok triples ->
              ignore (Queue.pop wk.w_inflight);
              c.c_running <- c.c_running - 1;
              (* the next pipelined dispatch is only now running: start its
                 deadline/steal clock here, not at dispatch time *)
              (match Queue.peek_opt wk.w_inflight with
              | Some next -> next.d_started <- Unix.gettimeofday ()
              | None -> ());
              (* first completion wins; a stolen twin's duplicate is
                 identical (deterministic simulator) and discarded *)
              if not c.c_done then begin
                c.c_done <- true;
                incr completed;
                Array.iteri (fun j t -> results.(c.c_slots.(j)) <- Some t) triples;
                feed_store c triples
              end)
  in
  (* Settle every complete response buffered for [wk], in pipeline order.
     As in the server, a parse runs only once the length the last
     [Incomplete] named has arrived. *)
  let rec frame wk =
    if (not wk.w_dead)
       && (not (Queue.is_empty wk.w_inflight))
       && Buffer.length wk.w_inb >= wk.w_need
    then
      match Http.parse_response ~max_body:(64 * 1024 * 1024) (Buffer.contents wk.w_inb) with
      | Http.Incomplete need -> wk.w_need <- need
      | Http.Invalid e -> fail_worker wk (Http.error_to_string e)
      | Http.Parsed (resp, used) ->
          let rest = Buffer.sub wk.w_inb used (Buffer.length wk.w_inb - used) in
          Buffer.clear wk.w_inb;
          Buffer.add_string wk.w_inb rest;
          wk.w_need <- 1;
          settle wk resp;
          frame wk
  in
  (* [select] reported [fd] readable: take what arrived without blocking.
     A partial response waits for more bytes, bounded only by its head's
     deadline, so a worker stalling mid-response holds up no one else. *)
  let rbuf = Bytes.create 65536 in
  let collect wk fd =
    match Unix.read fd rbuf 0 (Bytes.length rbuf) with
    | 0 ->
        fail_worker wk
          (if Buffer.length wk.w_inb = 0 then "connection closed" else "truncated message")
    | k ->
        Buffer.add_subbytes wk.w_inb rbuf 0 k;
        frame wk
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error (e, _, _) -> fail_worker wk (Unix.error_message e)
  in
  let finally () = List.iter close_fd !workers in
  Fun.protect ~finally (fun () ->
      if member_sources <> [] then refresh_members ();
      (* store pre-filter: one /lookup for every key of every point.
         Fully-stored points are merged exactly as a dispatched result
         would be — Measure.merge_batch counts them as simulations either
         way (someone once paid a simulator run for them), so counters and
         bytes match a store-less run. A failed lookup degrades to
         dispatching everything. *)
      (match store with
      | Some saddr when n > 0 -> (
          match store_lookup ~timeout:opts.store_timeout saddr (all_keys w ~variant work) with
          | Error e -> Log.warn ~src:"fleet" "store pre-filter lookup failed: %s" e
          | Ok hits ->
              let tbl = Hashtbl.create (List.length hits) in
              List.iter (fun (k, v) -> Hashtbl.replace tbl k v) hits;
              Array.iteri
                (fun i p ->
                  let kc, ke, ks = Measure.triple_keys w ~variant p in
                  match
                    (Hashtbl.find_opt tbl kc, Hashtbl.find_opt tbl ke, Hashtbl.find_opt tbl ks)
                  with
                  | Some c, Some e, Some s ->
                      results.(i) <-
                        Some { Measure.t_cycles = c; t_energy = e; t_code_size = s };
                      Metrics.incr m_prefilled
                  | _ -> ())
                work)
      | _ -> ());
      let todo =
        Array.of_list (List.filter (fun i -> results.(i) = None) (List.init n (fun i -> i)))
      in
      let todo_points = Array.map (fun i -> work.(i)) todo in
      let live_count = List.length (List.filter (fun wk -> not wk.w_dead) !workers) in
      let chunks =
        chunk_plan ~chunk:opts.chunk ~nworkers:live_count ~n:(Array.length todo)
        |> List.mapi (fun i (start, len) ->
               let points = Array.sub todo_points start len in
               { c_id = i; c_slots = Array.sub todo start len; c_points = points;
                 c_body =
                   measure_body w ~variant ~workload_scale:scale.Scale.workload_scale
                     ~smarts:scale.Scale.smarts points;
                 c_done = false; c_attempts = 0; c_running = 0 })
      in
      total := List.length chunks;
      List.iter (fun c -> Queue.push c pending) chunks;
      let next_poll = ref (Unix.gettimeofday () +. opts.poll_interval) in
      let empty_since = ref None in
      while !completed < !total do
        let now = Unix.gettimeofday () in
        if member_sources <> [] && now >= !next_poll then begin
          refresh_members ();
          next_poll := Unix.gettimeofday () +. opts.poll_interval
        end;
        let live = List.filter (fun wk -> not wk.w_dead) !workers in
        (match live with
        | [] ->
            if member_sources = [] then
              fail "all %d fleet workers failed with %d/%d chunks incomplete"
                (List.length !workers) (!total - !completed) !total
            else begin
              (* an elastic fleet may be momentarily empty (scale-down
                 before scale-up); wait for a join, but not forever *)
              (match !empty_since with
              | None -> empty_since := Some now
              | Some t0 when now -. t0 > opts.read_timeout ->
                  fail "no live fleet workers for %.0fs with %d/%d chunks incomplete"
                    (now -. t0) (!total - !completed) !total
              | Some _ -> ());
              let t = max 0.01 (!next_poll -. Unix.gettimeofday ()) in
              try ignore (Unix.select [] [] [] (min t 1.0))
              with Unix.Unix_error (Unix.EINTR, _, _) -> ()
            end
        | _ -> empty_since := None);
        (* fill every live worker's pipeline up to depth *)
        List.iter
          (fun wk ->
            while
              (not wk.w_dead)
              && Queue.length wk.w_inflight < opts.depth
              && not (Queue.is_empty pending)
            do
              let c = Queue.pop pending in
              if not c.c_done then dispatch wk c
            done)
          !workers;
        (* wait for responses — sleep until the nearest event, not a tick *)
        let busy =
          List.filter_map
            (fun wk ->
              match wk.w_fd with
              | Some fd when (not wk.w_dead) && not (Queue.is_empty wk.w_inflight) ->
                  Some (wk, fd)
              | _ -> None)
            !workers
        in
        (match busy with
        | [] -> ()
        | _ -> (
            let now = Unix.gettimeofday () in
            let heads = List.map (fun (wk, _) -> (Queue.peek wk.w_inflight).d_started) busy in
            let poll_at = if member_sources = [] then None else Some !next_poll in
            let timeout =
              next_wake ~now ~read_timeout:opts.read_timeout ~steal_after:opts.steal_after
                ?poll_at heads
            in
            match Unix.select (List.map snd busy) [] [] timeout with
            | readable, _, _ ->
                List.iter (fun (wk, fd) -> if List.memq fd readable then collect wk fd) busy
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()));
        let now = Unix.gettimeofday () in
        (* hard per-dispatch deadline, head of pipeline only: a queued
           dispatch is not running, its clock starts at promotion *)
        List.iter
          (fun wk ->
            if not wk.w_dead then
              match Queue.peek_opt wk.w_inflight with
              | Some d when now -. d.d_started > opts.read_timeout ->
                  fail_worker wk (Printf.sprintf "no response in %.0fs" opts.read_timeout)
              | _ -> ())
          !workers;
        (* work stealing: queue drained, an idle worker free, and a head
           chunk running past the straggler threshold without a twin —
           re-dispatch it; first completion wins *)
        if Queue.is_empty pending then begin
          let idle =
            List.filter (fun wk -> (not wk.w_dead) && Queue.is_empty wk.w_inflight) !workers
          in
          let stragglers =
            List.filter_map
              (fun wk ->
                if wk.w_dead then None
                else
                  match Queue.peek_opt wk.w_inflight with
                  | Some d
                    when (not d.d_chunk.c_done)
                         && d.d_chunk.c_running = 1
                         && now -. d.d_started > opts.steal_after ->
                      Some (d.d_chunk, d.d_started)
                  | _ -> None)
              !workers
            |> List.sort (fun (_, s1) (_, s2) -> compare s1 s2)
          in
          let rec steal idle stragglers =
            match (idle, stragglers) with
            | wk :: idle, (c, _) :: stragglers ->
                Metrics.incr m_steals;
                Log.info ~src:"fleet"
                  ~fields:[ ("chunk", Json.Int c.c_id); ("worker", Json.Str wk.w_key) ]
                  "stealing chunk %d onto %s" c.c_id wk.w_key;
                dispatch wk c;
                steal idle stragglers
            | _ -> ()
          in
          steal idle stragglers
        end
      done);
  Array.map
    (function Some t -> t | None -> fail "internal: incomplete batch")
    results

let attach ?(options = default_options) (m : Measure.t) sources =
  if sources = [] then fail "empty fleet";
  if options.depth < 1 then
    fail "pipeline depth must be at least 1, not %d" options.depth;
  if options.chunk < 0 then
    fail "chunk size must be positive, not %d (0 = auto)" options.chunk;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Measure.set_remote m (fun w ~variant work ->
      respond_batch options sources m.Measure.scale w ~variant work)

(* ---------------- run journals ---------------- *)

let journal_schema = "emc-run-journal/1"

let run_dir () =
  match Sys.getenv_opt "EMC_RUN_DIR" with Some d when d <> "" -> d | _ -> "emc-runs"

let journal_path run_id = Filename.concat (run_dir ()) (run_id ^ ".jsonl")

let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let journal_init ~run_id ~argv =
  mkdir_p (run_dir ());
  let path = journal_path run_id in
  if not (Sys.file_exists path) then begin
    let oc = open_out path in
    output_string oc
      (Json.to_string
         (Json.Obj
            [ ("schema", Json.Str journal_schema); ("run_id", Json.Str run_id);
              ("argv", Json.List (List.map (fun s -> Json.Str s) (Array.to_list argv)));
              ("started", Json.Float (Unix.time ())) ]));
    output_char oc '\n';
    close_out oc
  end;
  path

type journal_info = {
  ji_path : string;
  ji_run_id : string;
  ji_argv : string list;
  ji_entries : int;
  ji_skipped : int;
}

let journal_info run_id =
  let path = journal_path run_id in
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "no journal at %s (known runs live under %s/)" path (run_dir ()))
  else begin
    let header =
      let ic = open_in path in
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      let* j = Json.parse line in
      match (Json.member "schema" j, Json.member "run_id" j, Json.member "argv" j) with
      | Some (Json.Str s), Some (Json.Str id), Some (Json.List argv) when s = journal_schema ->
          Ok
            ( id,
              List.filter_map (function Json.Str a -> Some a | _ -> None) argv )
      | Some (Json.Str s), _, _ when s <> journal_schema ->
          Error (Printf.sprintf "%s: unsupported schema %S" path s)
      | _ -> Error (Printf.sprintf "%s: missing emc-run-journal header line" path)
    in
    let* ji_run_id, ji_argv = header in
    let table = Hashtbl.create 1024 in
    let loaded, skipped = Measure.cache_load table path in
    Ok { ji_path = path; ji_run_id; ji_argv; ji_entries = loaded; ji_skipped = skipped }
  end
