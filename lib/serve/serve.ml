open Emc_core
module Json = Emc_obs.Json
module Metrics = Emc_obs.Metrics
module Trace = Emc_obs.Trace

(** The prediction/search serving daemon (see serve.mli). *)

type listen = Port of int | Unix_socket of string

type opts = {
  listen : listen;
  workers : int;
  max_body : int;
  read_timeout : float;
  idle_timeout : float;
  max_conns : int;
  access_log : string option;
}

let default_opts listen =
  {
    listen;
    workers = 1;
    max_body = 1024 * 1024;
    read_timeout = 10.0;
    idle_timeout = 30.0;
    max_conns = 512;
    access_log = Sys.getenv_opt "EMC_ACCESS_LOG";
  }

(* ---------------- request handling ---------------- *)

let json_body status j = (status, "application/json", Json.to_string j ^ "\n")

let error_body status code msg = json_body status (Server.error_json code msg)

let ( let* ) r k = match r with Ok v -> k v | Error (st, code, msg) -> error_body st code msg

let as_float = function
  | Json.Float f -> Ok f
  | Json.Int i -> Ok (float_of_int i)
  | Json.Str s -> (
      match float_of_string_opt s with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "malformed number %S" s))
  | _ -> Error "expected a number"

let point_of_json j =
  match j with
  | Json.List vs -> (
      let rec go acc = function
        | [] -> Ok (Array.of_list (List.rev acc))
        | v :: rest -> ( match as_float v with Ok f -> go (f :: acc) rest | Error e -> Error e)
      in
      go [] vs)
  | _ -> Error "each point must be a list of numbers"

let parse_json_body (req : Http.request) =
  (match Http.header req "content-type" with
  | Some ct
    when not
           (String.length ct >= 16
           && String.lowercase_ascii (String.sub ct 0 16) = "application/json") ->
      Error (415, "unsupported_media_type", "content-type must be application/json, got " ^ ct)
  | _ -> Ok ())
  |> function
  | Error e -> Error e
  | Ok () -> (
      match Json.parse req.Http.body with
      | Ok j -> Ok j
      | Error e -> Error (400, "bad_json", "malformed JSON body: " ^ e))

(* /predict: single point or batch, coded (default) or raw space. *)
let max_batch = 4096

let handle_predict art (req : Http.request) =
  let* j = parse_json_body req in
  let* space =
    match Json.member "space" j with
    | None | Some (Json.Str "coded") -> Ok `Coded
    | Some (Json.Str "raw") -> Ok `Raw
    | Some (Json.Str s) -> Error (400, "bad_request", Printf.sprintf "unknown space %S (want \"coded\" or \"raw\")" s)
    | Some _ -> Error (400, "bad_request", "\"space\" must be a string")
  in
  let* points, batched =
    match (Json.member "point" j, Json.member "points" j) with
    | Some p, None -> (
        match point_of_json p with
        | Ok x -> Ok ([ x ], false)
        | Error e -> Error (400, "bad_request", e))
    | None, Some (Json.List ps) ->
        if List.length ps > max_batch then
          Error (413, "too_many_points", Printf.sprintf "batch of %d points exceeds the %d cap" (List.length ps) max_batch)
        else
          let rec go acc = function
            | [] -> Ok (List.rev acc, true)
            | p :: rest -> (
                match point_of_json p with
                | Ok x -> go (x :: acc) rest
                | Error e -> Error (400, "bad_request", e))
          in
          go [] ps
    | None, Some _ -> Error (400, "bad_request", "\"points\" must be a list of points")
    | None, None -> Error (400, "bad_request", "body must carry \"point\" or \"points\"")
    | Some _, Some _ -> Error (400, "bad_request", "give either \"point\" or \"points\", not both")
  in
  let* coded =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | x :: rest -> (
          let r =
            match space with
            | `Coded -> ( match Artifact.validate_point art x with Ok () -> Ok x | Error e -> Error e)
            | `Raw -> Artifact.code_raw art x
          in
          match r with
          | Ok x -> go (x :: acc) rest
          | Error e -> Error (400, "bad_point", e))
    in
    go [] points
  in
  let predict = Emc_regress.Repr.eval art.Artifact.repr in
  match (coded, batched) with
  | [ x ], false -> json_body 200 (Json.Obj [ ("prediction", Json.Float (predict x)) ])
  | xs, _ ->
      json_body 200
        (Json.Obj [ ("predictions", Json.List (List.map (fun x -> Json.Float (predict x)) xs)) ])

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
  json_body 200
    (Json.Obj
       [ ("technique", Json.Str art.Artifact.technique);
         ("terms",
          Json.List
            (List.map
               (fun (n, c) -> Json.Obj [ ("term", Json.Str n); ("coef", Json.Float c) ])
               terms)) ])

let named_config = function
  | "constrained" -> Some Emc_sim.Config.constrained
  | "typical" -> Some Emc_sim.Config.typical
  | "aggressive" -> Some Emc_sim.Config.aggressive
  | _ -> None

(* Shared by /search and /pareto: target microarchitecture from the body
   (a named config, raw "march" values, or the typical default). *)
let march_of_body j =
  match (Json.member "config" j, Json.member "march" j) with
  | Some (Json.Str name), None -> (
      match named_config name with
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

let int_field j name default =
  match Json.member name j with
  | None -> Ok default
  | Some (Json.Int v) when v > 0 -> Ok v
  | Some _ -> Error (400, "bad_request", Printf.sprintf "%S must be a positive integer" name)

(* Search budget shared by /search and /pareto: seed + GA parameters. *)
let search_params j =
  match int_field j "seed" 42 with
  | Error e -> Error e
  | Ok seed -> (
      match int_field j "pop_size" Emc_search.Ga.default_params.Emc_search.Ga.pop_size with
      | Error e -> Error e
      | Ok pop_size -> (
          match
            int_field j "generations" Emc_search.Ga.default_params.Emc_search.Ga.generations
          with
          | Error e -> Error e
          | Ok generations ->
              Ok (seed, { Emc_search.Ga.default_params with pop_size; generations })))

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
  json_body 200
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
  json_body 200 (Searcher.pareto_to_json ~seed ~evaluations:evals front)

let handle_healthz art (_req : Http.request) =
  json_body 200
    (Json.Obj
       [ ("status", Json.Str "ok");
         ("workload", Json.Str art.Artifact.workload);
         ("technique", Json.Str art.Artifact.technique);
         ("dims", Json.Int (Artifact.dims art));
         ("format_version", Json.Int Artifact.current_version) ])

(* A reference handler as a route: its rendered body copied into the
   server's buffer. *)
let copy h art req b =
  let status, content_type, body = h art req in
  Buffer.add_string b body;
  (status, content_type)

(* The daemon's route table, /predict supplied by the caller: the
   reference handler for [handle_request], the hot path for the daemon. *)
let routes art predict =
  Server.table
    [ ("POST", "/predict", predict);
      ("GET", "/rank", copy handle_rank art);
      ("POST", "/rank", copy handle_rank art);
      ("POST", "/search", copy handle_search art);
      ("POST", "/pareto", copy handle_pareto art);
      ("GET", "/healthz", copy handle_healthz art) ]

let handle_request art (req : Http.request) =
  let b = Buffer.create 1024 in
  let status, content_type = Server.dispatch (routes art (copy handle_predict art)) req b in
  (status, content_type, Buffer.contents b)

(* ---------------- the allocation-lean /predict hot path ----------------

   [handle_predict] above is the reference implementation: every request
   re-closes over the representation, builds a list of freshly-allocated
   point arrays and renders the response through a full [Json.t] tree.
   The daemon's per-worker [scratch] hoists all of that out of the
   request: the evaluator is compiled once ([Repr.compile] — dispatch and
   feature-expansion scratch resolved at worker start), points parse into
   a reused float arena, and the response renders straight into the
   server's body buffer through the same [Json] float writer, so the
   bytes are identical to the reference path (a unit test byte-compares
   the two over singles, batches, raw space and every error shape). *)

type scratch = {
  h_art : Artifact.t;
  h_dims : int;
  h_predict : float array -> float;
  h_point : float array;  (* reused right-arity point *)
  mutable h_arena : float array;  (* parsed points, flattened *)
  mutable h_lens : int array;  (* per-point arity in the arena *)
}

let ensure_arena hot n =
  if Array.length hot.h_arena < n then begin
    let bigger = Array.make (max n (2 * Array.length hot.h_arena)) 0.0 in
    Array.blit hot.h_arena 0 bigger 0 (Array.length hot.h_arena);
    hot.h_arena <- bigger
  end

let ensure_lens hot n =
  if Array.length hot.h_lens < n then begin
    let bigger = Array.make (max n (2 * Array.length hot.h_lens)) 0 in
    Array.blit hot.h_lens 0 bigger 0 (Array.length hot.h_lens);
    hot.h_lens <- bigger
  end

(* Parse one JSON point into the arena at [off]; same element order and
   error strings as [point_of_json]. Returns the next free offset. *)
let parse_point_into hot ~off j =
  match j with
  | Json.List vs ->
      let rec go off = function
        | [] -> Ok off
        | v :: rest -> (
            match as_float v with
            | Ok f ->
                ensure_arena hot (off + 1);
                hot.h_arena.(off) <- f;
                go (off + 1) rest
            | Error e -> Error e)
      in
      go off vs
  | _ -> Error "each point must be a list of numbers"

(* A right-arity point reuses [h_point]; a wrong-arity one gets a fresh
   slice so the schema validators report the true length (cold path). *)
let arena_point hot ~off ~len =
  if len = hot.h_dims then begin
    Array.blit hot.h_arena off hot.h_point 0 len;
    hot.h_point
  end
  else Array.sub hot.h_arena off len

let predict_into hot (req : Http.request) b =
  let ( let* ) r k = match r with Ok v -> k v | Error e -> Error e in
  let result =
    let* j = parse_json_body req in
    let* space =
      match Json.member "space" j with
      | None | Some (Json.Str "coded") -> Ok `Coded
      | Some (Json.Str "raw") -> Ok `Raw
      | Some (Json.Str s) ->
          Error (400, "bad_request", Printf.sprintf "unknown space %S (want \"coded\" or \"raw\")" s)
      | Some _ -> Error (400, "bad_request", "\"space\" must be a string")
    in
    let* n_points, single =
      match (Json.member "point" j, Json.member "points" j) with
      | Some p, None -> (
          match parse_point_into hot ~off:0 p with
          | Ok stop ->
              ensure_lens hot 1;
              hot.h_lens.(0) <- stop;
              Ok (1, true)
          | Error e -> Error (400, "bad_request", e))
      | None, Some (Json.List ps) ->
          if List.length ps > max_batch then
            Error
              (413, "too_many_points",
               Printf.sprintf "batch of %d points exceeds the %d cap" (List.length ps) max_batch)
          else
            let rec go i off = function
              | [] -> Ok (i, false)
              | p :: rest -> (
                  match parse_point_into hot ~off p with
                  | Ok stop ->
                      ensure_lens hot (i + 1);
                      hot.h_lens.(i) <- stop - off;
                      go (i + 1) stop rest
                  | Error e -> Error (400, "bad_request", e))
            in
            go 0 0 ps
      | None, Some _ -> Error (400, "bad_request", "\"points\" must be a list of points")
      | None, None -> Error (400, "bad_request", "body must carry \"point\" or \"points\"")
      | Some _, Some _ -> Error (400, "bad_request", "give either \"point\" or \"points\", not both")
    in
    Buffer.add_string b (if single then "{\"prediction\":" else "{\"predictions\":[");
    let off = ref 0 in
    let rec go i =
      if i >= n_points then Ok ()
      else begin
        let len = hot.h_lens.(i) in
        let x = arena_point hot ~off:!off ~len in
        off := !off + len;
        let r =
          match space with
          | `Coded -> (
              match Artifact.validate_point hot.h_art x with Ok () -> Ok x | Error e -> Error e)
          | `Raw -> Artifact.code_raw hot.h_art x
        in
        match r with
        | Error e -> Error (400, "bad_point", e)
        | Ok cx ->
            if i > 0 then Buffer.add_char b ',';
            Json.to_buffer b (Json.Float (hot.h_predict cx));
            go (i + 1)
      end
    in
    let* () = go 0 in
    Buffer.add_string b (if single then "}\n" else "]}\n");
    Ok ()
  in
  match result with
  | Ok () -> (200, "application/json")
  | Error (st, code, msg) ->
      Buffer.clear b;
      Server.error b st code msg

(* The per-worker serving context: the route table with the hot /predict,
   and the body buffer [handle_into] renders into. *)
type hot = { h_table : Server.table; h_body : Buffer.t }

let make_hot art =
  let dims = Artifact.dims art in
  let scratch =
    {
      h_art = art;
      h_dims = dims;
      h_predict = Emc_regress.Repr.compile art.Artifact.repr;
      h_point = Array.make (max 1 dims) 0.0;
      h_arena = Array.make (max 256 dims) 0.0;
      h_lens = Array.make 64 0;
    }
  in
  { h_table = routes art (predict_into scratch); h_body = Buffer.create 4096 }

let handle_into hot req = Server.dispatch hot.h_table req hot.h_body
let hot_body hot = hot.h_body

(* ---------------- the pre-forked daemon ---------------- *)

let worker art opts dir lsock =
  (* per-worker trace file: the parent's buffered events are dropped and
     this worker's spans go to EMC_TRACE.<pid> (workers exit with _exit,
     so the parent's at_exit flush never runs here) *)
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
  Trace.flush ();
  Unix._exit 0

let listen_description = function
  | Port p -> Printf.sprintf "127.0.0.1:%d" p
  | Unix_socket path -> path

let make_metrics_dir () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "emc-serve-%d.metrics" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o700
   with Unix.Unix_error (Unix.EEXIST, _, _) ->
     (* leftover from a recycled pid: clear stale snapshots *)
     Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
       (Sys.readdir dir));
  dir

let remove_metrics_dir dir =
  Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

let run opts art =
  let addr =
    match opts.listen with
    | Port p -> Unix.ADDR_INET (Unix.inet_addr_loopback, p)
    | Unix_socket path -> Unix.ADDR_UNIX path
  in
  let lsock = Server.bind addr in
  let workers = max 1 opts.workers in
  let dir = make_metrics_dir () in
  let pids =
    List.init workers (fun _ ->
        match Unix.fork () with 0 -> worker art opts dir lsock | pid -> pid)
  in
  let stopping = ref false in
  let quit = Sys.Signal_handle (fun _ -> stopping := true) in
  Sys.set_signal Sys.sigterm quit;
  Sys.set_signal Sys.sigint quit;
  Emc_obs.Log.info ~src:"serve"
    ~fields:
      [ ("workload", Json.Str art.Artifact.workload);
        ("technique", Json.Str art.Artifact.technique);
        ("workers", Json.Int workers) ]
    "serving %s/%s on %s (%d worker%s)" art.Artifact.workload art.Artifact.technique
    (listen_description opts.listen) workers
    (if workers = 1 then "" else "s");
  let alive = ref pids in
  while (not !stopping) && !alive <> [] do
    match Unix.waitpid [] (-1) with
    | pid, _ -> alive := List.filter (( <> ) pid) !alive
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> alive := []
  done;
  (* graceful shutdown: workers finish their in-flight request and flush
     their final snapshot + access log, then exit; only after every
     worker is down do we report totals, unlink and clean up *)
  List.iter (fun pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()) !alive;
  List.iter
    (fun pid -> try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !alive;
  let final = Server.merged_snapshots dir in
  let total name = Option.value ~default:0 (List.assoc_opt name (Metrics.snapshot_counters final)) in
  Server.release addr lsock;
  remove_metrics_dir dir;
  Emc_obs.Log.info ~src:"serve"
    ~fields:
      [ ("requests", Json.Int (total "serve.requests"));
        ("errors", Json.Int (total "serve.errors")) ]
    "server on %s stopped (%d requests, %d errors)" (listen_description opts.listen)
    (total "serve.requests") (total "serve.errors")
