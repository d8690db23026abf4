open Emc_core
open Emc_workloads
module Json = Emc_obs.Json
module Log = Emc_obs.Log
module Metrics = Emc_obs.Metrics
module Http = Emc_serve.Http
module Server = Emc_serve.Server

(** Distributed measurement over the serve substrate (see fleet.mli). *)

module Sched = Sched

exception Fleet_error = Sched.Fleet_error

let fail = Sched.fail

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
  if parts = [] then Error "empty fleet specification" else Json.map_result parse_source parts

(* ---------------- metrics ---------------- *)

(* coordinator side; the scheduling counters live in Sched *)
let m_prefilled = Metrics.counter "fleet.store_prefilled"
let m_store_puts = Metrics.counter "fleet.store_puts"

(* worker side *)
let m_measured = Metrics.counter "fleet.points_measured"
let m_heartbeats = Metrics.counter "fleet.heartbeats"
let g_worker_measures = Metrics.gauge "fleet.worker_measures"

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

let ( let* ) r f = Result.bind r f

let point_to_json (flags, march) =
  Json.List (Array.to_list (Array.map Json.hex (Params.raw_of flags march)))

let point_of_json j =
  let* raw = Json.list_of Json.as_float j in
  let n = List.length raw in
  if n <> Params.n_all then Error (Printf.sprintf "point has %d values; want %d" n Params.n_all)
  else
    let ((_, (march : Emc_sim.Config.t)) as point) = Params.split_raw (Array.of_list raw) in
    (* nothing can be compiled for or simulated on a machine that issues
       no instruction a cycle, no instruction ever dispatches into an RUU
       of no entries, and a negative latency stops loads from issuing
       (L1) or times nothing real (L2, memory): refuse the point here,
       with a message *)
    if march.issue_width < 1 then
      Error (Printf.sprintf "issue width must be at least 1, not %d" march.issue_width)
    else if march.ruu_size < 1 then
      Error (Printf.sprintf "RUU size must be at least 1, not %d" march.ruu_size)
    else
      match
        List.find_opt
          (fun (_, lat) -> lat < 0)
          [ ("L1 data-cache", march.dcache_lat); ("L2", march.l2_lat); ("memory", march.mem_lat) ]
      with
      | Some (what, lat) ->
          Error (Printf.sprintf "%s latency must not be negative, not %d" what lat)
      | None -> Ok point

let smarts_to_json = function
  | None -> Json.Null
  | Some (p : Emc_sim.Smarts.params) ->
      Json.Obj
        [ ("unit_size", Json.Int p.Emc_sim.Smarts.unit_size);
          ("warmup", Json.Int p.Emc_sim.Smarts.warmup);
          ("interval", Json.Int p.Emc_sim.Smarts.interval);
          ("target_ci", Json.hex p.Emc_sim.Smarts.target_ci);
          ("max_refinements", Json.Int p.Emc_sim.Smarts.max_refinements) ]

let smarts_of_json = function
  | Json.Null -> Ok None
  | j ->
      let* unit_size = Json.get "unit_size" Json.as_int j in
      let* warmup = Json.get "warmup" Json.as_int j in
      let* interval = Json.get "interval" Json.as_int j in
      let* target_ci = Json.get "target_ci" Json.as_float j in
      let* max_refinements = Json.get "max_refinements" Json.as_int j in
      (* a unit of no instructions never advances the sampling loop *)
      if unit_size < 1 then
        Error (Printf.sprintf "smarts unit_size must be at least 1, not %d" unit_size)
      else Ok (Some { Emc_sim.Smarts.unit_size; warmup; interval; target_ci; max_refinements })

let measure_body (w : Workload.t) ~variant ~workload_scale ~smarts points =
  Json.to_string
    (Json.Obj
       [ ("schema", Json.Str measure_schema);
         ("workload", Json.Str w.Workload.name);
         ("variant", Json.Str (Workload.variant_name variant));
         ("workload_scale", Json.hex workload_scale);
         ("smarts", smarts_to_json smarts);
         ("points", Json.List (Array.to_list (Array.map point_to_json points))) ])

(* The largest workload_scale a /measure body may ask for. Workload.sc
   sizes every input linearly in it, and no Scale preset goes above
   full's 1.0. *)
let max_workload_scale = 1.0

type measure_request = {
  mr_workload : string;
  mr_variant : Workload.variant;
  mr_workload_scale : float;
  mr_smarts : Emc_sim.Smarts.params option;
  mr_points : (Emc_opt.Flags.t * Emc_sim.Config.t) array;
}

let measure_request_of_body body =
  let* j = Json.parse body in
  let* schema = Json.get "schema" Json.as_str j in
  let* () =
    if schema = measure_schema then Ok ()
    else Error (Printf.sprintf "unsupported schema %S (want %S)" schema measure_schema)
  in
  let* mr_workload = Json.get "workload" Json.as_str j in
  let* variant = Json.get "variant" Json.as_str j in
  let* mr_variant =
    match variant with
    | "train" -> Ok Workload.Train
    | "ref" -> Ok Workload.Ref
    | s -> Error (Printf.sprintf "unknown variant %S" s)
  in
  let* mr_workload_scale = Json.get "workload_scale" Json.as_float j in
  let* () =
    if Float.is_finite mr_workload_scale && mr_workload_scale > 0.0 then
      if mr_workload_scale <= max_workload_scale then Ok ()
      else
        Error
          (Printf.sprintf "workload_scale must be at most %g, not %h" max_workload_scale
             mr_workload_scale)
    else
      Error (Printf.sprintf "workload_scale must be finite and positive, not %h" mr_workload_scale)
  in
  let* mr_smarts = smarts_of_json (Option.value ~default:Json.Null (Json.member "smarts" j)) in
  let* points = Json.get "points" (Json.list_of point_of_json) j in
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
  let* t_cycles = Json.get "cycles" Json.as_float j in
  let* t_energy = Json.get "energy" Json.as_float j in
  let* t_code_size = Json.get "code_size" Json.as_float j in
  Ok { Measure.t_cycles; t_energy; t_code_size }

let result_body triples =
  Json.to_string
    (Json.Obj
       [ ("schema", Json.Str result_schema);
         ("results", Json.List (Array.to_list (Array.map triple_to_json triples))) ])

let triples_of_body ~expect body =
  let* j = Json.parse body in
  let* results = Json.get "results" (Json.list_of triple_of_json) j in
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
      let loaded, skipped, _ = Result_file.load table path in
      Log.info ~src:"fleet-store"
        ~fields:[ ("file", Json.Str path); ("keys", Json.Int (Hashtbl.length table)) ]
        "store file %s: %d entries loaded, %d skipped" path loaded skipped);
  let persist = Option.map Result_file.open_append file in
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
        match (Json.get "addr" Json.as_str j, Option.bind (Json.member "ttl" j) Json.hex_of) with
        | Ok a, Some ttl when a <> "" && ttl > 0.0 && ttl <= 3600.0 -> Ok (a, ttl)
        | Ok a, None when a <> "" -> Ok (a, 6.0)
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
        match Json.get "addr" Json.as_str j with
        | Ok a when a <> "" -> Ok a
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
    json_route (Json.get "keys" (Json.list_of Json.as_str))
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
      (Json.get "entries"
         (Json.list_of (fun e ->
              let* k = Json.get "k" Json.as_str e in
              let* v = Json.get "v" Json.as_float e in
              Ok (k, v))))
      (fun entries ->
        let fresh =
          List.filter
            (fun (k, v) ->
              let is_new = not (Hashtbl.mem table k) in
              if is_new then Hashtbl.replace table k v;
              is_new)
            entries
        in
        Option.iter (fun oc -> Result_file.append oc fresh) persist;
        let added = List.length fresh in
        Metrics.add m_added added;
        Metrics.set g_keys (float_of_int (Hashtbl.length table));
        Json.Obj [ ("added", Json.Int added) ])
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
      ("GET", "/healthz", healthz) ];
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
  Result.bind (Json.parse body) (Json.get "added" Json.as_int)

(* ---------------- membership client ---------------- *)

(* Bounds every store RPC: a worker's heartbeat and deregister, the
   coordinator's lookups, puts and membership polls. *)
let store_timeout = 10.0

let register_rpc addr ~advertise ~ttl =
  let body =
    Json.to_string (Json.Obj [ ("addr", Json.Str advertise); ("ttl", Json.hex ttl) ])
  in
  Result.map (fun _ -> ()) (store_rpc ~timeout:store_timeout addr ~path:"/register" ~body)

let deregister_rpc addr ~advertise =
  let body = Json.to_string (Json.Obj [ ("addr", Json.Str advertise) ]) in
  Result.map (fun _ -> ())
    (store_rpc ~timeout:store_timeout addr ~path:"/deregister" ~body)

let members ?(timeout = store_timeout) addr =
  let* body = store_rpc ~meth:"GET" ~timeout addr ~path:"/members" ~body:"" in
  let* j = Json.parse body in
  Json.get "workers"
    (Json.list_of (fun w ->
         let* a = Json.get "addr" Json.as_str w in
         Ok (a, Option.value ~default:0.0 (Option.bind (Json.member "age" w) Json.hex_of))))
    j

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

(* The most protocol signatures a worker keeps a Measure for. Each holds
   its simulator memory and result memo, and a client chooses the
   signature, so the table is bounded; evicting one loses only memo hits,
   since its results have already gone back to their coordinators. *)
let max_worker_measures = 4

let run_worker ?(jobs = 1) ?register ?advertise ?(heartbeat = 2.0) ?pidfile ~listen () =
  (* one Measure per protocol signature, most recently used first: the
     result memo persists across requests, so repeated corner points
     across batches and the energy/code-size re-reads cost nothing *)
  let measures : (string * Measure.t) list ref = ref [] in
  let measure_for ~workload_scale ~smarts =
    let scale = { Scale.quick with Scale.name = "fleet"; workload_scale; smarts; jobs } in
    let key = Scale.signature scale in
    let m =
      match List.assoc_opt key !measures with Some m -> m | None -> Measure.create scale
    in
    measures :=
      (key, m)
      :: List.filteri (fun i _ -> i < max_worker_measures - 1) (List.remove_assoc key !measures);
    Metrics.set g_worker_measures (float_of_int (List.length !measures));
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
            (* only the chunk in hand needs its binaries: kept, they would
               grow the worker with every point it ever served. The
               Measure's one simulator memory stays: it is sized by the
               workload, not by the points served *)
            Hashtbl.reset m.Measure.binaries;
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
              (* a zombie still answers [kill pid 0], so the caller's own
                 child is reaped; any other worker is gone once its pidfile
                 is, which it removes as it exits *)
              let gone () =
                match Unix.waitpid [ Unix.WNOHANG ] pid with
                | 0, _ -> false
                | _ -> true
                | exception Unix.Unix_error _ -> (
                    (not (Sys.file_exists pidfile))
                    ||
                    match Unix.kill pid 0 with
                    | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true
                    | _ | (exception Unix.Unix_error _) -> false)
              in
              let rec wait () =
                if gone () then Ok pid
                else if Unix.gettimeofday () > deadline then
                  Error (Printf.sprintf "worker %d still running after %.0fs" pid timeout)
                else begin
                  (try ignore (Unix.select [] [] [] 0.05)
                   with Unix.Unix_error (Unix.EINTR, _, _) -> ());
                  wait ()
                end
              in
              wait ()))

(* ---------------- coordinator ---------------- *)

type options = { chunk : int; depth : int; connect_timeout : float }

let default_options = { chunk = 0; depth = 1; connect_timeout = 5.0 }

let chunk_plan = Sched.chunk_plan

type chunk = {
  slots : int array;  (** result index of each of this chunk's points *)
  points : (Emc_opt.Flags.t * Emc_sim.Config.t) array;
  body : string;  (** the serialized /measure request, built once *)
}

(* One worker connection, kept alive across chunks. *)
type conn = {
  addr : addr;
  mutable fd : Unix.file_descr option;
  inb : Buffer.t;  (** response bytes read but not yet framed *)
  mutable need : int;  (** length [inb] must reach before the next parse *)
}

let all_keys (w : Workload.t) ~variant points =
  Array.to_list points
  |> List.concat_map (fun p ->
         let kc, ke, ks = Measure.triple_keys w ~variant p in
         [ kc; ke; ks ])

(* Shard one respond_many miss batch across the fleet: the driver of
   Sched, which only moves bytes. [work] is already deduplicated in
   first-occurrence order by Measure.respond_many; chunks carry the
   result index of every point ([slots]), so every result lands at its
   input index whatever the membership, chunking or arrival order.

   Before any dispatch, membership sources are polled once (so an elastic
   fleet's initial worker set is known), the shared store is consulted
   once for every key of every point (fully-stored points never reach a
   worker), and the rest is planned into chunks. Then the driver performs
   every action the scheduler decides, sleeps in [select] until bytes
   arrive or the scheduler's wake, and feeds framed responses back. *)
let respond_batch opts sources (scale : Scale.t) (w : Workload.t) ~variant
    (work : (Emc_opt.Flags.t * Emc_sim.Config.t) array) =
  let n = Array.length work in
  let results : Measure.triple option array = Array.make n None in
  let member_sources =
    List.filter_map (function Members a -> Some a | Worker _ -> None) sources
  in
  let store = match member_sources with a :: _ -> Some a | [] -> None in
  let conns : (string, conn) Hashtbl.t = Hashtbl.create 16 in
  let remember a =
    let key = Http.addr_to_string a in
    if not (Hashtbl.mem conns key) then
      Hashtbl.add conns key { addr = a; fd = None; inb = Buffer.create 4096; need = 1 };
    key
  in
  let s =
    Sched.create ~depth:opts.depth ~elastic:(member_sources <> [])
      (List.filter_map (function Worker a -> Some (remember a) | Members _ -> None) sources)
  in
  let handle ev = Sched.handle s ~now:(Unix.gettimeofday ()) ev in
  let poll () =
    let complete = ref true in
    let union =
      List.concat_map
        (fun src ->
          match members ~timeout:store_timeout src with
          | Error e ->
              complete := false;
              Log.warn ~src:"fleet" "membership poll of %s failed: %s" (Http.addr_to_string src)
                e;
              []
          | Ok ms ->
              List.filter_map
                (fun (a, _) ->
                  match Http.parse_addr a with
                  | Ok addr -> Some (remember addr)
                  | Error e ->
                      Log.warn ~src:"fleet" "ignoring advertised worker %S: %s" a e;
                      None)
                ms)
        member_sources
    in
    handle (Sched.Members (union, !complete))
  in
  let chunks = ref [||] in
  let close c =
    (match c.fd with Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ()) | None -> ());
    c.fd <- None;
    Buffer.clear c.inb;
    c.need <- 1
  in
  let send key id =
    let c = Hashtbl.find conns key in
    let conn =
      match c.fd with
      | Some fd -> Ok fd
      | None ->
          let* sockaddr = Http.sockaddr_of_addr c.addr in
          Result.map_error Http.error_to_string
            (Http.connect ~timeout:opts.connect_timeout sockaddr)
    in
    match conn with
    | Error e -> handle (Sched.Failed (key, "connect: " ^ e))
    | Ok fd -> (
        c.fd <- Some fd;
        match
          Http.write_request fd ~meth:"POST" ~path:"/measure"
            ~headers:
              [ ("Content-Type", "application/json"); ("X-Request-Id", string_of_int id) ]
            ~body:!chunks.(id).body ()
        with
        | Ok () -> ()
        | Error e -> handle (Sched.Failed (key, "request: " ^ Http.error_to_string e)))
  in
  (* Merge a chunk's first completion and feed it to the store, so a
     killed run resumes from it. A failed put is logged and costs only a
     later run's simulation. *)
  let put id triples =
    let c = !chunks.(id) in
    Array.iteri (fun j t -> results.(c.slots.(j)) <- Some t) triples;
    Option.iter
      (fun saddr ->
        let values =
          Array.to_list triples
          |> List.concat_map (fun (t : Measure.triple) -> [ t.t_cycles; t.t_energy; t.t_code_size ])
        in
        let entries = List.combine (all_keys w ~variant c.points) values in
        match store_put ~timeout:store_timeout saddr entries with
        | Ok added -> Metrics.add m_store_puts added
        | Error e -> Log.warn ~src:"fleet" "store put failed: %s" e)
      store
  in
  let rec drain () =
    match Sched.next s ~now:(Unix.gettimeofday ()) with
    | None -> ()
    | Some a ->
        (match a with
        | Sched.Send (key, id) -> send key id
        | Sched.Close key -> close (Hashtbl.find conns key)
        | Sched.Put (id, triples) -> put id triples
        | Sched.Poll -> poll ());
        drain ()
  in
  (* Decode one framed response to the chunk at the head of [key]'s
     pipeline. The request is deterministic: a structured rejection would
     repeat on every worker, so it fails the batch loudly instead of
     being retried to death. The worker's server echoes the request id,
     which is the chunk id; a mismatch means the pipeline lost sync and
     every queued pairing is suspect. *)
  let settle key id (resp : Http.response) =
    if resp.Http.status <> 200 then
      fail "worker %s rejected the batch: HTTP %d %s" key resp.Http.status
        (String.sub resp.Http.resp_body 0 (min 200 (String.length resp.Http.resp_body)))
    else
      match Http.response_header resp "x-request-id" with
      | Some got when got <> string_of_int id ->
          Sched.Failed (key, Printf.sprintf "pipeline desync: got chunk %s, expected %d" got id)
      | _ -> (
          match
            triples_of_body ~expect:(Array.length !chunks.(id).points) resp.Http.resp_body
          with
          | Error msg -> Sched.Failed (key, "bad response: " ^ msg)
          | Ok triples -> Sched.Completed (key, triples))
  in
  (* Settle every complete response buffered for [key], in pipeline
     order. As in the server, a parse runs only once the length the last
     [Incomplete] named has arrived. *)
  let rec frame key c =
    match Sched.head s key with
    | Some id when Buffer.length c.inb >= c.need -> (
        match Http.parse_response ~max_body:(64 * 1024 * 1024) (Buffer.contents c.inb) with
        | Http.Incomplete need -> c.need <- need
        | Http.Invalid e -> handle (Sched.Failed (key, Http.error_to_string e))
        | Http.Parsed (resp, used) ->
            let rest = Buffer.sub c.inb used (Buffer.length c.inb - used) in
            Buffer.clear c.inb;
            Buffer.add_string c.inb rest;
            c.need <- 1;
            handle (settle key id resp);
            frame key c)
    | _ -> ()
  in
  (* [select] reported [fd] readable: take what arrived without blocking.
     A partial response waits for more bytes, bounded only by its head's
     deadline, so a worker stalling mid-response holds up no one else. *)
  let rbuf = Bytes.create 65536 in
  let collect key c fd =
    match Unix.read fd rbuf 0 (Bytes.length rbuf) with
    | 0 ->
        handle
          (Sched.Failed
             (key, if Buffer.length c.inb = 0 then "connection closed" else "truncated message"))
    | k ->
        Buffer.add_subbytes c.inb rbuf 0 k;
        frame key c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error (e, _, _) -> handle (Sched.Failed (key, Unix.error_message e))
  in
  let finally () = Hashtbl.iter (fun _ c -> close c) conns in
  Fun.protect ~finally (fun () ->
      if member_sources <> [] then poll ();
      (* store pre-filter: one /lookup for every key of every point.
         Fully-stored points are merged exactly as a dispatched result
         would be — Measure.respond_many counts them as simulations either
         way (someone once paid a simulator run for them), so counters and
         bytes match a store-less run. A failed lookup degrades to
         dispatching everything. *)
      (match store with
      | Some saddr when n > 0 -> (
          match store_lookup ~timeout:store_timeout saddr (all_keys w ~variant work) with
          | Error e -> Log.warn ~src:"fleet" "store pre-filter lookup failed: %s" e
          | Ok hits ->
              let tbl = Hashtbl.of_seq (List.to_seq hits) in
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
      chunks :=
        Sched.plan s ~now:(Unix.gettimeofday ()) ~chunk:opts.chunk (Array.length todo)
        |> List.map (fun (start, len) ->
               let points = Array.sub todo_points start len in
               { slots = Array.sub todo start len; points;
                 body =
                   measure_body w ~variant ~workload_scale:scale.Scale.workload_scale
                     ~smarts:scale.Scale.smarts points })
        |> Array.of_list;
      drain ();
      while not (Sched.finished s) do
        let busy =
          Hashtbl.fold
            (fun key c acc ->
              match c.fd with
              | Some fd when Sched.head s key <> None -> (key, c, fd) :: acc
              | _ -> acc)
            conns []
        in
        (match
           Unix.select (List.map (fun (_, _, fd) -> fd) busy) [] []
             (Sched.wake s ~now:(Unix.gettimeofday ()))
         with
        | readable, _, _ ->
            List.iter (fun (key, c, fd) -> if List.memq fd readable then collect key c fd) busy
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        drain ()
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
