open Emc_core
module Json = Emc_obs.Json
module Metrics = Emc_obs.Metrics
module Trace = Emc_obs.Trace
module Proc = Emc_par.Proc

(** The prediction/search serving daemon (see serve.mli). *)

type opts = {
  listen : Http.addr;
  workers : int;
  max_body : int;
  read_timeout : float;
  idle_timeout : float;
  max_conns : int;
  access_log : string option;
}

(* ---------------- request handling ----------------

   Every handler answers [Ok json] (200) or [Error (status, code,
   message)]; [route] renders either into the server's body buffer. *)

let ( let* ) = Result.bind

let route h req b =
  match h req with
  | Ok j -> Server.reply b 200 j
  | Error (status, code, msg) -> Server.error b status code msg

(* A point's coordinates straight into a float array: a [Float] as is,
   anything else through [Json.as_float], whose first failure is the
   answer *)
let point_of_json = function
  | Json.List vs ->
      let x = Array.create_float (List.length vs) in
      let rec fill i = function
        | [] -> Ok x
        | Json.Float f :: rest ->
            x.(i) <- f;
            fill (i + 1) rest
        | v :: rest -> (
            match Json.as_float v with
            | Ok f ->
                x.(i) <- f;
                fill (i + 1) rest
            | Error e -> Error e)
      in
      fill 0 vs
  | _ -> Error "each point must be a list of numbers"

let parse_json_body (req : Http.request) =
  match Http.header req "content-type" with
  | Some ct
    when not
           (String.length ct >= 16
           && String.lowercase_ascii (String.sub ct 0 16) = "application/json") ->
      Error (415, "unsupported_media_type", "content-type must be application/json, got " ^ ct)
  | _ -> (
      match Json.parse req.Http.body with
      | Ok j -> Ok j
      | Error e -> Error (400, "bad_json", "malformed JSON body: " ^ e))

(* /predict: single point or batch, coded (default) or raw space. Every
   point is parsed before any is validated, so a batch reports its first
   malformed point ahead of its first invalid one. *)
let max_batch = 4096

let handle_predict art =
  let predict = Emc_regress.Repr.eval art.Artifact.repr in
  let parse p = Result.map_error (fun e -> (400, "bad_request", e)) (point_of_json p) in
  fun req ->
    let* j = parse_json_body req in
    let* code =
      match Json.member "space" j with
      | None | Some (Json.Str "coded") ->
          Ok (fun x -> match Artifact.validate_point art x with Ok () -> Ok x | Error e -> Error e)
      | Some (Json.Str "raw") -> Ok (Artifact.code_raw art)
      | Some (Json.Str s) ->
          Error (400, "bad_request", Printf.sprintf "unknown space %S (want \"coded\" or \"raw\")" s)
      | Some _ -> Error (400, "bad_request", "\"space\" must be a string")
    in
    let eval x =
      match code x with
      | Ok cx -> Ok (Json.Float (predict cx))
      | Error e -> Error (400, "bad_point", e)
    in
    match (Json.member "point" j, Json.member "points" j) with
    | Some p, None ->
        let* x = parse p in
        let* v = eval x in
        Ok (Json.Obj [ ("prediction", v) ])
    | None, Some (Json.List ps) ->
        let n = List.length ps in
        if n > max_batch then
          Error (413, "too_many_points", Printf.sprintf "batch of %d points exceeds the %d cap" n max_batch)
        else
          let* xs = Json.map_result parse ps in
          let* vs = Json.map_result eval xs in
          Ok (Json.Obj [ ("predictions", Json.List vs) ])
    | None, Some _ -> Error (400, "bad_request", "\"points\" must be a list of points")
    | None, None -> Error (400, "bad_request", "body must carry \"point\" or \"points\"")
    | Some _, Some _ -> Error (400, "bad_request", "give either \"point\" or \"points\", not both")

let handle_rank art (req : Http.request) =
  let* top =
    (* a malformed or non-positive ?top must not silently mean "all" *)
    match List.assoc_opt "top" req.Http.query with
    | None -> Ok max_int
    | Some v -> (
        match int_of_string_opt v with
        | Some n when n > 0 -> Ok n
        | _ ->
            Error
              (400, "bad_request",
               Printf.sprintf "query parameter \"top\" must be a positive integer, got %S" v))
  in
  (* NaN-safe strongest-first order: polymorphic compare on floats would
     order NaN coefficients arbitrarily; strength_order pins them last *)
  let terms = List.sort Emc_regress.Metrics.strength_order art.Artifact.terms in
  let terms = List.filteri (fun i _ -> i < top) terms in
  Ok
    (Json.Obj
       [ ("technique", Json.Str art.Artifact.technique);
         ("terms",
          Json.List
            (List.map
               (fun (n, c) -> Json.Obj [ ("term", Json.Str n); ("coef", Json.Float c) ])
               terms)) ])

(* Shared by /search and /pareto: target microarchitecture from the body
   (a named config, raw "march" values, or the typical default). *)
let march_of_body j =
  match (Json.member "config" j, Json.member "march" j) with
  | Some (Json.Str name), None -> (
      match List.assoc_opt name Emc_sim.Config.named with
      | Some c -> Ok c
      | None ->
          Error (400, "bad_request", Printf.sprintf "unknown config %S (want constrained|typical|aggressive)" name))
  | None, Some m -> (
      match point_of_json m with
      | Error e -> Error (400, "bad_request", e)
      | Ok vals ->
          if Array.length vals <> Params.n_march then
            Error (400, "bad_request", Printf.sprintf "\"march\" wants %d raw values, got %d" Params.n_march (Array.length vals))
          else Ok (Params.to_march (Array.append (Array.make Params.n_compiler 0.0) vals)))
  | None, None -> Ok Emc_sim.Config.typical
  | _ -> Error (400, "bad_request", "give either \"config\" or \"march\", not both")

let int_field ?(cap = max_int) j name default =
  match Option.map Json.as_int (Json.member name j) with
  | None -> Ok default
  | Some (Ok v) when v > 0 && v <= cap -> Ok v
  | Some (Ok v) when v > cap ->
      Error (400, "bad_request", Printf.sprintf "%S must be at most %d, got %d" name cap v)
  | Some _ -> Error (400, "bad_request", Printf.sprintf "%S must be a positive integer" name)

(* The largest pop_size and generations a body may ask for. A search's
   time grows as pop_size² × generations and the NSGA-II front sort holds
   (2 × pop_size)² indices, so without a cap one body sets both without
   limit; every budget in use (the defaults of 60, the scale presets, the
   CI smokes) is far below it. *)
let max_budget = 1000

(* Search budget shared by /search and /pareto: seed + GA parameters. *)
let search_params j =
  let* seed = int_field j "seed" 42 in
  let* pop_size =
    int_field ~cap:max_budget j "pop_size" Emc_search.Ga.default_params.Emc_search.Ga.pop_size
  in
  let* generations =
    int_field ~cap:max_budget j "generations"
      Emc_search.Ga.default_params.Emc_search.Ga.generations
  in
  Ok (seed, { Emc_search.Ga.default_params with pop_size; generations })

let handle_search art (req : Http.request) =
  let* j = parse_json_body req in
  let* march = march_of_body j in
  let* seed, params = search_params j in
  let evals_before = Option.value ~default:0 (Metrics.counter_value "ga.evaluations") in
  let r =
    Searcher.search ~params ~rng:(Emc_util.Rng.create seed) ~model:(Artifact.model art) ~march ()
  in
  let evals = Option.value ~default:0 (Metrics.counter_value "ga.evaluations") - evals_before in
  let flag_names = Params.names Params.compiler_specs in
  Ok
    (Json.Obj
       [ ("flags",
          Json.Obj
            (Array.to_list
               (Array.mapi (fun i v -> (flag_names.(i), Json.Float v)) r.Searcher.raw)));
         ("flags_string", Json.Str (Emc_opt.Flags.to_string r.Searcher.flags));
         ("predicted_cycles", Json.Float r.Searcher.predicted_cycles);
         ("evaluations", Json.Int evals);
         ("seed", Json.Int seed) ])

let handle_pareto art (req : Http.request) =
  let* j = parse_json_body req in
  let* energy_repr =
    match Artifact.extra_repr art "energy" with
    | Some r -> Ok r
    | None ->
        Error
          (409, "no_energy_response",
           "artifact carries no \"energy\" response model; retrain with emc train --energy")
  in
  let* march = march_of_body j in
  let* seed, params = search_params j in
  let energy_model =
    { Emc_regress.Model.technique = "energy"; predict = Emc_regress.Repr.eval energy_repr;
      n_params = 0; terms = []; repr = Some energy_repr }
  in
  let evals_before = Option.value ~default:0 (Metrics.counter_value "pareto.evaluations") in
  let front =
    Searcher.search_pareto ~params ~rng:(Emc_util.Rng.create seed)
      ~cycles_model:(Artifact.model art) ~energy_model ~march ()
  in
  let evals =
    Option.value ~default:0 (Metrics.counter_value "pareto.evaluations") - evals_before
  in
  Ok (Searcher.pareto_to_json ~seed ~evaluations:evals front)

let handle_healthz art (_req : Http.request) =
  Ok
    (Json.Obj
       [ ("status", Json.Str "ok");
         ("workload", Json.Str art.Artifact.workload);
         ("technique", Json.Str art.Artifact.technique);
         ("dims", Json.Int (Artifact.dims art));
         ("format_version", Json.Int Artifact.current_version) ])

(* The per-worker serving context: the route table and the body buffer
   [handle_into] renders into. *)
type hot = { h_table : Server.table; h_body : Buffer.t }

let make_hot art =
  let rank = route (handle_rank art) in
  let h_table =
    Server.table
      [ ("POST", "/predict", route (handle_predict art));
        ("GET", "/rank", rank);
        ("POST", "/rank", rank);
        ("POST", "/search", route (handle_search art));
        ("POST", "/pareto", route (handle_pareto art));
        ("GET", "/healthz", route (handle_healthz art)) ]
  in
  { h_table; h_body = Buffer.create 4096 }

let handle_into hot req = Server.dispatch hot.h_table req hot.h_body
let hot_body hot = hot.h_body

(* ---------------- the pre-forked daemon ---------------- *)

let worker art opts dir lsock =
  (* per-worker trace file: the parent's buffered events are dropped and
     this worker's spans go to EMC_TRACE.<pid> (a spawned worker exits
     with _exit, so the parent's at_exit flush never runs here) *)
  (match Sys.getenv_opt "EMC_TRACE" with
  | Some p when p <> "" -> Trace.enable (Printf.sprintf "%s.%d" p (Unix.getpid ()))
  | _ -> ());
  (* each worker's registry must record only what this worker served:
     counts inherited from the pre-fork parent would otherwise be
     republished by every worker and multiply in the merge *)
  Metrics.reset ();
  Server.run ~max_body:opts.max_body ~read_timeout:opts.read_timeout
    ~idle_timeout:opts.idle_timeout ~max_conns:opts.max_conns ?access_log:opts.access_log
    ~snapshot_dir:dir (make_hot art).h_table lsock;
  Trace.flush ()

let clear dir =
  Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir)

let make_metrics_dir () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "emc-serve-%d.metrics" (Unix.getpid ()))
  in
  (* a leftover from a recycled pid holds stale snapshots *)
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> clear dir);
  dir

let run opts art =
  let addr =
    match Http.sockaddr_of_addr opts.listen with Ok a -> a | Error e -> failwith e
  in
  (* bind catches TERM/INT before the socket exists, and the workers
     inherit the flag: a signal at any point of start-up ends below *)
  let lsock = Server.bind addr in
  let workers = max 1 opts.workers in
  let dir = make_metrics_dir () in
  let pids = List.init workers (fun _ -> Proc.spawn (fun () -> worker art opts dir lsock)) in
  Emc_obs.Log.info ~src:"serve"
    ~fields:
      [ ("workload", Json.Str art.Artifact.workload);
        ("technique", Json.Str art.Artifact.technique);
        ("workers", Json.Int workers) ]
    "serving %s/%s on %s (%d worker%s)" art.Artifact.workload art.Artifact.technique
    (Http.addr_to_string opts.listen) workers
    (if workers = 1 then "" else "s");
  (* serve until the stop flag, or until no worker is left *)
  let gone = Proc.reap ~until:Proc.stopping pids in
  (* graceful shutdown: workers finish their in-flight request and flush
     their final snapshot + access log, then exit; only after every
     worker is down do we report totals, unlink and clean up *)
  Proc.terminate (List.filter (fun pid -> not (List.mem_assoc pid gone)) pids);
  let final = Server.merged_snapshots dir in
  let total name = Option.value ~default:0 (List.assoc_opt name (Metrics.snapshot_counters final)) in
  Server.release addr lsock;
  clear dir;
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  Emc_obs.Log.info ~src:"serve"
    ~fields:
      [ ("requests", Json.Int (total "serve.requests"));
        ("errors", Json.Int (total "serve.errors")) ]
    "server on %s stopped (%d requests, %d errors)" (Http.addr_to_string opts.listen)
    (total "serve.requests") (total "serve.errors")
