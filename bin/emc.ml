(** [emc] — command-line front end for the reproduction.

    Subcommands mirror the stages of the paper's methodology: [compile]
    (inspect the compiler's output for a workload), [simulate] (one
    measurement), [design] (generate a D-optimal experiment design), [model]
    (build and evaluate empirical models), [train]/[predict]/[rank]/[serve]
    (persist a model as an artifact and use or serve it without retraining),
    [search] (model-based search for platform-specific settings, §6.3), and
    [experiment] (regenerate a specific table/figure). *)

open Cmdliner
open Emc_core
open Emc_workloads
module Fleet = Emc_fleet.Fleet
module Http = Emc_serve.Http

(* ---------------- shared arguments ---------------- *)

(* Closed sets of names parse through converters, so a name outside the set
   is a usage error (exit 124) that lists the valid names, reported while
   the command line is parsed and so before any work starts. A value comes
   with the name it was given by. *)
let choice ~what choices =
  let parse s =
    match List.assoc_opt s choices with
    | Some v -> Ok (s, v)
    | None ->
        Error
          (Printf.sprintf "unknown %s %S: expected one of %s" what s
             (String.concat ", " (List.map fst choices)))
  in
  Arg.conv' (parse, fun ppf (s, _) -> Format.pp_print_string ppf s)

let named choices name = (name, List.assoc name choices)

let workload_arg =
  let doc = "Workload: one of " ^ String.concat ", " Registry.names ^ " (short names ok)." in
  let parse s =
    match Registry.find s with
    | w -> Ok w
    | exception Invalid_argument _ ->
        Error
          (Printf.sprintf "unknown workload %S: expected one of %s, or the part after the dot"
             s (String.concat ", " Registry.names))
  in
  let workload =
    Arg.conv' (parse, fun ppf (w : Workload.t) -> Format.pp_print_string ppf w.name)
  in
  Arg.(value
       & opt workload (Registry.find "164.gzip")
       & info [ "w"; "workload" ] ~docv:"NAME" ~doc)

let config_arg =
  let names = List.map fst Emc_sim.Config.named in
  let doc = "Microarchitecture: " ^ String.concat ", " names ^ " (Table 5)." in
  Arg.(value
       & opt (choice ~what:"config" Emc_sim.Config.named) (named Emc_sim.Config.named "typical")
       & info [ "c"; "config" ] ~docv:"CONFIG" ~doc)

let opt_levels =
  Emc_opt.Flags.[ ("O0", o0); ("O1", o1); ("O2", o2); ("O3", o3) ]

let opt_level_arg =
  let doc = "Optimization level: " ^ String.concat ", " (List.map fst opt_levels) ^ "." in
  Arg.(value
       & opt (choice ~what:"optimization level" opt_levels) (named opt_levels "O2")
       & info [ "O"; "opt" ] ~docv:"LEVEL" ~doc)

let scales =
  [ ("tiny", Scale.tiny); ("quick", Scale.quick); ("medium", Scale.medium);
    ("full", Scale.full); ("paper", Scale.full) ]

let scale_arg =
  let doc = "Protocol scale: tiny, quick, medium or full (paper is full)." in
  Arg.(value
       & opt (choice ~what:"scale" scales) (named scales "quick")
       & info [ "scale" ] ~docv:"SCALE" ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let trace_arg =
  let doc =
    "Write a Chrome trace_event JSON trace of this run to $(docv) (open in chrome://tracing \
     or Perfetto). Equivalent to setting EMC_TRACE=$(docv)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "After the run, print the telemetry metrics registry (simulator stall/miss counters, \
     SMARTS confidence intervals, cache hit rates, fit times, ...)."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let jobs_arg =
  let doc =
    "Fan measurement batches out across $(docv) forked workers. Defaults to EMC_JOBS, or 1 \
     (sequential). Any worker count produces bit-identical datasets at the same seed."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let cache_arg =
  let doc =
    "Persistent measurement result cache (JSONL). Loaded on startup and appended on every \
     new simulation, so a warm re-run performs zero simulations. Entries name their \
     protocol (input scale, SMARTS parameters, simulator version) and load only under it. \
     Defaults to EMC_CACHE."
  in
  Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"FILE" ~doc)

let fleet_arg =
  let doc =
    "Comma-separated $(b,emc fleet-worker) addresses (host:port, :port, or unix-socket \
     paths): shard measurement batches across remote workers instead of local forks. \
     Prefix an address with @ to treat it as an $(b,emc fleet-store) whose registered \
     workers form an elastic fleet: workers joining mid-run (fleet-worker --register) \
     pick up pending chunks, drained or dead workers age out and their chunks requeue. \
     The first @ address is also the result store: the coordinator looks every batch up \
     in it, dispatches only what it lacks and puts each chunk's results back, so a \
     static fleet shares a store as w1,w2,@STORE. Results are bit-identical to a \
     single-process --jobs 1 run regardless of membership, chunking, pipelining, retries \
     or arrival order. Defaults to EMC_FLEET."
  in
  Arg.(value & opt (some string) None & info [ "fleet" ] ~docv:"ADDRS" ~doc)

let chunk_arg =
  let doc =
    "Design points per fleet dispatch. Must be positive; omit it entirely for automatic \
     sizing (~4 chunks per worker)."
  in
  Arg.(value & opt (some int) None & info [ "chunk" ] ~docv:"N" ~doc)

let depth_arg =
  let doc =
    "Outstanding chunks pipelined per fleet worker connection (default 1). Depth > 1 \
     hides dispatch latency — a worker starts its next chunk without a coordinator \
     round-trip; results stay bit-identical."
  in
  Arg.(value & opt (some int) None & info [ "depth" ] ~docv:"N" ~doc)

let run_id_arg =
  let doc =
    "Resumable run: EMC_RUN_DIR/$(docv).jsonl is the run's result file in place of \
     --cache (giving both is an error). Every completed measurement is appended to it and \
     it is preloaded on startup, so re-running a killed run with the same id re-simulates \
     nothing ($(b,emc fleet-resume) inspects or re-executes a journal)."
  in
  Arg.(value & opt (some string) None & info [ "run-id" ] ~docv:"ID" ~doc)

(* Wrap a subcommand body with the observability plumbing: enable tracing
   first (so spans cover the whole run), dump metrics last. *)
let with_obs trace metrics f =
  (match trace with Some file -> Emc_obs.Trace.enable file | None -> ());
  let r = f () in
  if metrics then print_string (Emc_obs.Metrics.dump_text ());
  r

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("emc: " ^ msg); exit 1) fmt

(* The one result file of a measuring run: the --run-id journal, else
   --cache, else EMC_CACHE. *)
let result_file ?run_id cache =
  match (run_id, cache) with
  | Some _, Some _ -> die "--cache and --run-id exclude each other: a run's journal is its cache"
  | Some id, None -> Some (Result_file.journal_init ~run_id:id ~argv:Sys.argv)
  | None, Some _ -> cache
  | None, None -> Sys.getenv_opt "EMC_CACHE"

(* The options of the measuring subcommands (model, train, search, pareto,
   experiment), parsed by one term. Nothing is read or opened until a
   subcommand forces [scale] or asks for its {!context}, so search -m and
   pareto -m create no journal and load no cache they do not use. *)
type measuring = {
  scale : Scale.t Lazy.t;
  seed : int;
  cache : string option;
  fleet : string option * int option * int option;  (** --fleet, --chunk, --depth *)
  run_id : string option;
  trace : string option;
  metrics : bool;
}

let measuring_arg =
  (* --scale's preset with the worker count of --jobs, or of EMC_JOBS *)
  let make (_, base) seed jobs cache fleet chunk depth run_id trace metrics =
    let jobs () = match jobs with Some j -> j | None -> Scale.jobs_of_env () in
    { scale = lazy { base with Scale.jobs = jobs () }; seed; cache; fleet = (fleet, chunk, depth);
      run_id; trace; metrics }
  in
  Term.(const make $ scale_arg $ seed_arg $ jobs_arg $ cache_arg $ fleet_arg $ chunk_arg
        $ depth_arg $ run_id_arg $ trace_arg $ metrics_arg)

(* A measuring run's experiment context: resolve the result file, then
   point the measure at the fleet when one is configured. *)
let context o =
  let fleet, chunk, depth = o.fleet in
  Option.iter
    (fun c -> if c <= 0 then die "--chunk must be positive (omit it for auto sizing), not %d" c)
    chunk;
  Option.iter (fun d -> if d < 1 then die "--depth must be at least 1, not %d" d) depth;
  let ctx =
    Experiments.create ~seed:o.seed ~scale:(Lazy.force o.scale)
      ?cache_file:(result_file ?run_id:o.run_id o.cache) ()
  in
  (match match fleet with Some s -> Some s | None -> Sys.getenv_opt "EMC_FLEET" with
  | None | Some "" -> ()
  | Some spec ->
      let d = Fleet.default_options in
      let options =
        { d with
          chunk = Option.value chunk ~default:d.chunk;
          depth = Option.value depth ~default:d.depth }
      in
      Fleet.attach ~options ctx.Experiments.measure
        (match Fleet.parse_fleet spec with Ok addrs -> addrs | Error e -> die "--fleet: %s" e));
  ctx

(* ---------------- params ---------------- *)

let params_cmd =
  let run trace metrics =
    with_obs trace metrics (fun () ->
        Experiments.print_parameters ();
        Experiments.print_table5 ())
  in
  Cmd.v (Cmd.info "params" ~doc:"Print the modeled parameter space (Tables 1, 2 and 5).")
    Term.(const run $ trace_arg $ metrics_arg)

(* ---------------- compile ---------------- *)

let compile_cmd =
  let dump_ir =
    Arg.(value & flag & info [ "dump-ir" ] ~doc:"Print the optimized IR.")
  in
  let dump_asm =
    Arg.(value & flag & info [ "dump-asm" ] ~doc:"Print the machine code that is simulated.")
  in
  let run (w : Workload.t) (level, flags) dump_ir dump_asm trace metrics =
    with_obs trace metrics (fun () ->
        let ir = Emc_lang.Minic.compile_exn w.Workload.source in
        let before = Emc_ir.Ir.instr_count ir in
        let opt =
          Emc_obs.Trace.with_span ~cat:"compile" "optimize" (fun () ->
              Emc_opt.Pipeline.optimize ~issue_width:4 flags ir)
        in
        let after = Emc_ir.Ir.instr_count opt in
        let prog =
          Emc_obs.Trace.with_span ~cat:"compile" "codegen" (fun () ->
              Emc_codegen.Compiler.emit ~issue_width:4 flags opt)
        in
        Printf.printf "%s at %s: IR %d -> %d instrs; machine code %d instrs (%d bytes)\n" w.name
          level before after
          (Array.length prog.Emc_isa.Isa.insts)
          (4 * Array.length prog.Emc_isa.Isa.insts);
        if dump_ir then print_string (Emc_ir.Ir.to_string opt);
        if dump_asm then
          Array.iteri
            (fun i inst -> Format.printf "%5d: %a@." i Emc_isa.Isa.pp_inst inst)
            prog.Emc_isa.Isa.insts)
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile a workload and report/dump the result.")
    Term.(const run $ workload_arg $ opt_level_arg $ dump_ir $ dump_asm $ trace_arg $ metrics_arg)

(* ---------------- simulate ---------------- *)

let simulate_cmd =
  let full_detail =
    Arg.(value & flag & info [ "full" ] ~doc:"Fully detailed simulation (no SMARTS sampling).")
  in
  let run (w : Workload.t) (level, flags) (cname, march) scale cache full_detail trace metrics =
    with_obs trace metrics (fun () ->
        let scale = { (snd scale) with Scale.jobs = Scale.jobs_of_env () } in
        let m =
          Measure.create ?cache_file:(result_file cache)
            { scale with smarts = (if full_detail then None else scale.smarts) }
        in
        let t0 = Unix.gettimeofday () in
        let cycles = Measure.cycles m w ~variant:Workload.Train flags march in
        let wall = Unix.gettimeofday () -. t0 in
        Printf.printf "%s %s on %s: %.0f cycles (%.2fs wall, %d simulations)\n" w.name level
          cname cycles wall m.Measure.simulations;
        (* detailed-mode engine throughput, comparable with BENCH_sim.json;
           meaningless on a warm cache (zero simulations) *)
        if m.Measure.simulations > 0 && wall > 0.0 then
          match Emc_obs.Metrics.counter_value "sim.detail_instrs" with
          | Some di when di > 0 ->
              Printf.printf "  engine: %.2f M detailed instrs/s\n"
                (float_of_int di /. wall /. 1e6)
          | _ -> ())
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Compile and simulate one workload/flags/microarch combination.")
    Term.(const run $ workload_arg $ opt_level_arg $ config_arg $ scale_arg $ cache_arg
          $ full_detail $ trace_arg $ metrics_arg)

(* ---------------- design ---------------- *)

let design_cmd =
  let n_arg = Arg.(value & opt int 40 & info [ "n" ] ~docv:"N" ~doc:"Design size.") in
  let run n seed trace metrics =
    if n < 1 then die "-n must be at least 1, not %d" n;
    with_obs trace metrics (fun () ->
        let rng = Emc_util.Rng.create seed in
        let space = Params.space_all in
        let design = Emc_doe.Doe.generate rng space ~n in
        let rand = Emc_doe.Doe.random_design rng space n in
        Printf.printf "D-optimal design, n=%d, log det(X'X) = %.3f (random baseline %.3f)\n" n
          (Emc_doe.Doe.log_det_information design)
          (Emc_doe.Doe.log_det_information rand);
        Array.iteri
          (fun i p ->
            if i < 5 then begin
              let raw = Params.decode Params.all_specs p in
              let flags, march = Params.split_raw raw in
              Printf.printf "  point %d: %s | %s\n" i (Emc_opt.Flags.to_string flags)
                (Emc_sim.Config.to_string march)
            end)
          design;
        if n > 5 then Printf.printf "  ... (%d more)\n" (n - 5))
  in
  Cmd.v (Cmd.info "design" ~doc:"Generate a D-optimal experiment design (paper, section 3).")
    Term.(const run $ n_arg $ seed_arg $ trace_arg $ metrics_arg)

(* ---------------- model ---------------- *)

let technique_arg =
  let techniques =
    [ ("linear", Modeling.Linear); ("mars", Modeling.Mars); ("rbf", Modeling.Rbf) ]
  in
  let doc = "Model family: linear, mars or rbf." in
  Arg.(value
       & opt (choice ~what:"technique" techniques) (named techniques "rbf")
       & info [ "t"; "technique" ] ~docv:"TECH" ~doc)

(* Accuracy and rank quality of one fitted family on the held-out test
   design: RMSE/MAPE grade the predicted magnitudes, Spearman and the
   top-K metrics grade the induced order — what the model-based search
   actually consumes. *)
let report_model_metrics ~test (m : Emc_regress.Model.t) =
  let open Emc_regress in
  let p = m.Model.predict in
  Printf.printf
    "  %-18s rmse=%-12.5g mape=%7.2f%%  spearman=%+.3f  top5_regret=%7.2f%%  p@5=%.2f\n"
    m.Model.technique (Metrics.rmse p test) (Metrics.mape p test) (Metrics.spearman p test)
    (Metrics.top_k_regret ~k:5 p test)
    (Metrics.precision_at_k ~k:5 p test)

let model_cmd =
  let run (w : Workload.t) (_, technique) o =
    with_obs o.trace o.metrics (fun () ->
        let ctx = context o in
        let d = Experiments.prepare ctx w in
        let m = Experiments.model_of d technique in
        Printf.printf "%s / %s: test MAPE = %.2f%% (%d params)\n" w.name
          (Modeling.technique_name technique)
          (Emc_regress.Metrics.mape m.Emc_regress.Model.predict d.Experiments.test)
          m.Emc_regress.Model.n_params;
        Printf.printf "all families on the %d-point test design:\n"
          (Emc_regress.Dataset.size d.Experiments.test);
        List.iter
          (fun t -> report_model_metrics ~test:d.Experiments.test (Experiments.model_of d t))
          Modeling.all_techniques;
        let rank_m =
          Emc_regress.Rank.fit
            ~names:(Params.names Params.all_specs)
            ~rng:(Emc_util.Rng.create (o.seed + 2))
            d.Experiments.train
        in
        report_model_metrics ~test:d.Experiments.test rank_m;
        let names = Params.names Params.all_specs in
        let effects =
          Emc_regress.Effects.top_effects m.Emc_regress.Model.predict ~dims:Params.n_all ~names
        in
        Printf.printf "strongest effects:\n";
        List.iteri (fun i (n, e) -> if i < 10 then Printf.printf "  %-40s %+.4g\n" n e) effects)
  in
  Cmd.v
    (Cmd.info "model" ~doc:"Build an empirical model for a workload and report its accuracy.")
    Term.(const run $ workload_arg $ technique_arg $ measuring_arg)

(* ---------------- artifacts: train / predict / rank / serve ---------------- *)

let load_artifact path =
  match Artifact.load path with Ok a -> a | Error e -> die "%s" e

let model_file_arg =
  let doc = "Model artifact file (written by $(b,emc train --out))." in
  Arg.(required & opt (some string) None & info [ "m"; "model" ] ~docv:"FILE" ~doc)

let train_cmd =
  let out_arg =
    let doc = "Write the model artifact (JSON) to $(docv)." in
    Arg.(required & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let energy_arg =
    let doc =
      "Also fit an energy-response model on the same training design (zero extra \
       simulations — the simulator memoizes every response) and embed it in the artifact, \
       enabling $(b,emc pareto --model) and the daemon's /pareto endpoint."
    in
    Arg.(value & flag & info [ "energy" ] ~doc)
  in
  let run (w : Workload.t) (tname, technique) o out energy =
    with_obs o.trace o.metrics (fun () ->
        let ctx = context o in
        let d = Experiments.prepare ctx w in
        let m = Experiments.model_of d technique in
        let test_mape =
          Emc_regress.Metrics.mape m.Emc_regress.Model.predict d.Experiments.test
        in
        let extra =
          if not energy then []
          else
            let em = Modeling.fit technique (Experiments.energy_train ctx d) in
            match em.Emc_regress.Model.repr with
            | Some r -> [ ("energy", r) ]
            | None -> die "energy model for %s has no serializable representation" tname
        in
        match
          Artifact.of_model ~workload:w.name ~scale:(Lazy.force o.scale).Scale.name ~seed:o.seed
            ~train_n:(Emc_regress.Dataset.size d.Experiments.train)
            ~test_mape ~extra m
        with
        | Error e -> die "%s" e
        | Ok a ->
            Artifact.save a out;
            Printf.printf "%s / %s: test MAPE = %.2f%%, %d params -> %s%s\n" w.name
              a.Artifact.technique test_mape m.Emc_regress.Model.n_params out
              (if energy then " (+energy response)" else "");
            Printf.printf "rank quality on the %d-point test design:\n"
              (Emc_regress.Dataset.size d.Experiments.test);
            report_model_metrics ~test:d.Experiments.test m)
  in
  Cmd.v
    (Cmd.info "train"
       ~doc:"Build an empirical model and persist it as a reusable artifact file.")
    Term.(const run $ workload_arg $ technique_arg $ measuring_arg $ out_arg $ energy_arg)

let predict_cmd =
  let raw_arg =
    let doc = "Interpret the values as raw parameter settings and code them through the \
               artifact's schema (default: already-coded [-1,1] values)."
    in
    Arg.(value & flag & info [ "raw" ] ~doc)
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the prediction as a JSON object.")
  in
  let point_arg =
    let doc = "Design-point values, one per schema parameter, in order." in
    Arg.(non_empty & pos_all float [] & info [] ~docv:"VALUE" ~doc)
  in
  let run mfile raw json point =
    let a = load_artifact mfile in
    let x = Array.of_list point in
    let coded =
      if raw then Artifact.code_raw a x
      else match Artifact.validate_point a x with Ok () -> Ok x | Error e -> Error e
    in
    match coded with
    | Error e -> die "%s" e
    | Ok x ->
        let p = Emc_regress.Repr.eval a.Artifact.repr x in
        if json then
          print_endline
            (Emc_obs.Json.to_string (Emc_obs.Json.Obj [ ("prediction", Emc_obs.Json.Float p) ]))
        else Printf.printf "%.17g\n" p
  in
  Cmd.v
    (Cmd.info "predict" ~doc:"Evaluate a saved model artifact at one design point.")
    Term.(const run $ model_file_arg $ raw_arg $ json_arg $ point_arg)

let rank_cmd =
  let top_arg =
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc:"Show the $(docv) strongest terms.")
  in
  let run mfile top =
    let a = load_artifact mfile in
    Printf.printf "%s / %s (test MAPE %s):\n" a.Artifact.workload a.Artifact.technique
      (match a.Artifact.test_mape with Some m -> Printf.sprintf "%.2f%%" m | None -> "n/a");
    a.Artifact.terms
    (* NaN-safe: polymorphic compare would place NaN coefficients anywhere *)
    |> List.sort Emc_regress.Metrics.strength_order
    |> List.iteri (fun i (n, c) -> if i < top then Printf.printf "  %-40s %+.4g\n" n c)
  in
  Cmd.v
    (Cmd.info "rank"
       ~doc:"Rank a saved model's significant terms by |coefficient| (the paper's Table-4 \
             reading).")
    Term.(const run $ model_file_arg $ top_arg)

(* ---------------- daemons ---------------- *)

let daemon_port_arg =
  Arg.(value & opt (some int) None
       & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Listen on 127.0.0.1:$(docv).")

let daemon_socket_arg =
  Arg.(value & opt (some string) None
       & info [ "unix-socket" ] ~docv:"PATH" ~doc:"Listen on a Unix domain socket at $(docv).")

(* The address named by a --port / --unix-socket pair: exactly one. *)
let addr_of_args ?(host = "127.0.0.1") port socket =
  match (port, socket) with
  | Some p, None -> Http.Tcp (host, p)
  | None, Some path -> Http.Unix_sock path
  | None, None -> die "give --port or --unix-socket"
  | Some _, Some _ -> die "give either --port or --unix-socket, not both"

let serve_cmd =
  let workers_arg =
    Arg.(value & opt int 1
         & info [ "workers" ] ~docv:"N"
             ~doc:"Pre-forked scheduler workers sharing the listening socket; each one \
                   multiplexes up to --max-conns keep-alive connections. /metrics \
                   aggregates across all of them: counters sum exactly and latency \
                   histograms merge bucket-wise.")
  in
  let max_body_arg =
    Arg.(value & opt int (1024 * 1024)
         & info [ "max-body" ] ~docv:"BYTES" ~doc:"Request body size limit.")
  in
  let timeout_arg =
    Arg.(value & opt float 10.0
         & info [ "read-timeout" ] ~docv:"SECONDS"
             ~doc:"Whole-request read deadline (a dribbling request earns a 408) and \
                   response-drain deadline (a stalled reader is cut off).")
  in
  let idle_timeout_arg =
    Arg.(value & opt float 30.0
         & info [ "idle-timeout" ] ~docv:"SECONDS"
             ~doc:"Close a keep-alive connection with no request in flight after $(docv) \
                   seconds of silence.")
  in
  let max_conns_arg =
    Arg.(value & opt int 512
         & info [ "max-conns" ] ~docv:"N"
             ~doc:"Concurrent connections per worker (select() bounds this to roughly \
                   1000 per process).")
  in
  let access_log_arg =
    Arg.(value & opt (some string) None
         & info [ "access-log" ] ~docv:"FILE"
             ~doc:"Append one JSONL record per request (id, status, sizes, per-phase \
                   timings). Defaults to EMC_ACCESS_LOG.")
  in
  let run mfile port socket workers max_body read_timeout idle_timeout max_conns access_log =
    let a = load_artifact mfile in
    let listen = addr_of_args port socket in
    let access_log =
      match access_log with Some f -> Some f | None -> Sys.getenv_opt "EMC_ACCESS_LOG"
    in
    Emc_serve.Serve.run
      { listen; workers; max_body; read_timeout; idle_timeout; max_conns; access_log }
      a
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve a saved model over HTTP: /predict, /rank, /search, /pareto, /healthz, \
             /metrics.")
    Term.(const run $ model_file_arg $ daemon_port_arg $ daemon_socket_arg $ workers_arg
          $ max_body_arg $ timeout_arg $ idle_timeout_arg $ max_conns_arg $ access_log_arg)

(* ---------------- loadgen ---------------- *)

let loadgen_cmd =
  let module Lg = Emc_loadgen.Loadgen in
  let host_arg =
    Arg.(value & opt string "127.0.0.1"
         & info [ "host" ] ~docv:"HOST" ~doc:"Target host for --port.")
  in
  let port_arg =
    Arg.(value & opt (some int) None
         & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Drive a daemon on $(docv).")
  in
  let socket_arg =
    Arg.(value & opt (some string) None
         & info [ "unix-socket" ] ~docv:"PATH" ~doc:"Drive a daemon on a Unix socket.")
  in
  let rps_arg =
    Arg.(value & opt (some float) None
         & info [ "rps" ] ~docv:"R"
             ~doc:"Open-loop mode: schedule arrivals at $(docv) requests/second total \
                   (Poisson, seeded) and measure latency from the scheduled arrival — a \
                   stalled server is charged its queueing delay. Without --rps the run is \
                   closed-loop: every connection issues requests back-to-back.")
  in
  let connections_arg =
    Arg.(value & opt int 4
         & info [ "c"; "connections"; "concurrency" ] ~docv:"N"
             ~doc:"Concurrent keep-alive connections (one forked generator each) — a \
                   client-side knob, independent of the daemon's --workers count: the \
                   multiplexed daemon serves many connections per worker.")
  in
  let duration_arg =
    Arg.(value & opt float 10.0 & info [ "duration" ] ~docv:"SECONDS" ~doc:"Seconds of load.")
  in
  let mix_arg =
    Arg.(value & opt (some string) None
         & info [ "mix" ] ~docv:"SPEC"
             ~doc:"Weighted endpoint mix, e.g. predict=8,predict_batch=1,think=2 \
                   (endpoints: predict, predict_batch, rank, healthz, think). A think \
                   draw sends nothing and holds the connection open for --think seconds \
                   — a slow-client shape the daemon must not let pin a worker.")
  in
  let think_arg =
    Arg.(value & opt float 0.2
         & info [ "think" ] ~docv:"SECONDS"
             ~doc:"Think time for the mix's think draws: the connection stays open, \
                   silent, for $(docv) seconds.")
  in
  let batch_arg =
    Arg.(value & opt int 16
         & info [ "batch" ] ~docv:"N" ~doc:"Points per predict_batch request.")
  in
  let lg_timeout_arg =
    Arg.(value & opt float 5.0
         & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Per-response receive timeout.")
  in
  let slo_arg =
    Arg.(value & opt_all string []
         & info [ "slo" ] ~docv:"KEY=BOUND"
             ~doc:"Assert an SLO against the report (repeatable); exit nonzero on \
                   violation. Keys: p50 p90 p99 p999 mean max (latency seconds, upper \
                   bound), rps (lower bound), error_rate errors 4xx 5xx timeouts (upper \
                   bounds). Example: --slo p99=0.050 --slo 5xx=0.")
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the emc-loadgen-report/1 JSON report to $(docv) (- for stdout).")
  in
  let parse_mix spec =
    String.split_on_char ',' spec
    |> List.map (fun part ->
           match String.index_opt part '=' with
           | None -> die "bad mix entry %S: want name=weight" part
           | Some i -> (
               let name = String.sub part 0 i in
               let w = String.sub part (i + 1) (String.length part - i - 1) in
               match int_of_string_opt w with
               | Some w -> (name, w)
               | None -> die "bad mix weight %S in %S" w part))
  in
  let ms v = Printf.sprintf "%.3f ms" (v *. 1000.0) in
  let run host port socket rps concurrency duration seed mix batch timeout think slos json_out =
    let target = addr_of_args ~host port socket in
    let mode = match rps with Some r -> Lg.Open_loop r | None -> Lg.Closed_loop in
    let mix = match mix with None -> Lg.default_mix | Some s -> parse_mix s in
    let slos =
      List.map
        (fun s -> match Lg.parse_slo s with Ok x -> x | Error e -> die "%s" e)
        slos
    in
    let opts =
      { (Lg.default_opts target) with
        mode; concurrency; duration; seed; mix; batch; timeout; think }
    in
    match Lg.run opts with
    | Error e -> die "loadgen: %s" e
    | Ok r ->
        let open Lg in
        Printf.printf "loadgen: %s, %d connection%s, %.1f s\n"
          (match r.r_mode with
          | Open_loop rps -> Printf.sprintf "open loop at %g rps" rps
          | Closed_loop -> "closed loop")
          r.r_concurrency
          (if r.r_concurrency = 1 then "" else "s")
          r.r_wall_s;
        Printf.printf "  sent %d  responses %d  achieved %.1f rps\n" r.r_sent r.r_responses
          r.r_achieved_rps;
        (match r.r_latency with
        | None -> print_string "  latency: nothing measured\n"
        | Some _ ->
            let p q = match percentile r q with Some v -> ms v | None -> "-" in
            Printf.printf "  latency p50 %s  p90 %s  p99 %s  p99.9 %s\n" (p 50.0) (p 90.0)
              (p 99.0) (p 99.9));
        let errs = errors_total r in
        if errs = 0 && r.r_id_mismatches = 0 then print_string "  errors: none\n"
        else
          Printf.printf
            "  errors: connect=%d timeout=%d protocol=%d 4xx=%d 5xx=%d id_mismatch=%d\n"
            r.r_connect_errors r.r_timeouts r.r_protocol_errors r.r_4xx r.r_5xx
            r.r_id_mismatches;
        (match json_out with
        | None -> ()
        | Some "-" -> print_endline (Emc_obs.Json.to_string (report_to_json r))
        | Some file ->
            let oc = open_out file in
            output_string oc (Emc_obs.Json.to_string (report_to_json r));
            output_char oc '\n';
            close_out oc);
        let violations =
          List.filter
            (fun slo ->
              match check_slo r slo with
              | None -> die "unknown SLO key %S" slo.slo_key
              | Some (actual, ok) ->
                  Printf.printf "  SLO %s=%g: actual %g  %s\n" slo.slo_key slo.slo_bound
                    actual
                    (if ok then "ok" else "VIOLATED");
                  not ok)
            slos
        in
        if violations <> [] then exit 4
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Drive a serving daemon with open- or closed-loop load and check SLOs \
             (exit 4 on violation).")
    Term.(const run $ host_arg $ port_arg $ socket_arg $ rps_arg $ connections_arg
          $ duration_arg $ seed_arg $ mix_arg $ batch_arg $ lg_timeout_arg $ think_arg
          $ slo_arg $ json_arg)

(* ---------------- search ---------------- *)

let search_cmd =
  let validate =
    Arg.(value & flag & info [ "validate" ] ~doc:"Also measure the prescribed settings.")
  in
  let model_opt_arg =
    let doc = "Search over a saved model artifact instead of training in-process — zero \
               simulator invocations."
    in
    Arg.(value & opt (some string) None & info [ "m"; "model" ] ~docv:"FILE" ~doc)
  in
  let run (w : Workload.t) (cname, march) o mfile validate =
    with_obs o.trace o.metrics (fun () ->
        let scale = Lazy.force o.scale in
        let measure, model =
          match mfile with
          | Some path ->
              (* the artifact replaces training; a Measure is only created
                 lazily if --validate asks for real measurements *)
              ( lazy (Measure.create ?cache_file:(result_file o.cache) scale),
                Artifact.model (load_artifact path) )
          | None ->
              let ctx = context o in
              let d = Experiments.prepare ctx w in
              (lazy ctx.Experiments.measure, Experiments.rbf_model d)
        in
        let r =
          Searcher.search ~params:scale.Scale.ga ~rng:(Emc_util.Rng.create (o.seed + 1))
            ~model ~march ()
        in
        Printf.printf "%s on %s:\n  prescribed: %s\n  predicted cycles: %.0f\n" w.name cname
          (Emc_opt.Flags.to_string r.Searcher.flags)
          r.Searcher.predicted_cycles;
        if validate then begin
          let measure = Lazy.force measure in
          let o2 = Measure.cycles measure w ~variant:Workload.Train Emc_opt.Flags.o2 march in
          let best = Measure.cycles measure w ~variant:Workload.Train r.Searcher.flags march in
          Printf.printf "  measured: O2=%.0f prescribed=%.0f actual speedup=%+.2f%%\n" o2 best
            ((o2 /. best -. 1.0) *. 100.0)
        end)
  in
  Cmd.v
    (Cmd.info "search"
       ~doc:"Model-based search for platform-specific optimization settings (paper, section 6.3).")
    Term.(const run $ workload_arg $ config_arg $ measuring_arg $ model_opt_arg $ validate)

(* ---------------- pareto ---------------- *)

let pareto_cmd =
  let model_opt_arg =
    let doc = "Search over a saved two-response artifact ($(b,emc train --energy)) instead \
               of training in-process — zero simulator invocations."
    in
    Arg.(value & opt (some string) None & info [ "m"; "model" ] ~docv:"FILE" ~doc)
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Print the front as JSON — byte-identical to the daemon's /pareto response \
                   at the same seed and parameters.")
  in
  let pop_arg =
    Arg.(value & opt (some int) None
         & info [ "pop-size" ] ~docv:"N" ~doc:"NSGA-II population size.")
  in
  let gens_arg =
    Arg.(value & opt (some int) None
         & info [ "generations" ] ~docv:"N" ~doc:"NSGA-II generation count.")
  in
  let run (w : Workload.t) (cname, march) o mfile pop gens json =
    with_obs o.trace o.metrics (fun () ->
        (* same defaults as the daemon's /pareto (not --scale's GA budget),
           so served and in-process runs are comparable bit for bit *)
        let dflt = Emc_search.Ga.default_params in
        let params =
          { dflt with
            Emc_search.Ga.pop_size = Option.value pop ~default:dflt.Emc_search.Ga.pop_size;
            generations = Option.value gens ~default:dflt.Emc_search.Ga.generations }
        in
        let wname_shown, cycles_model, energy_model =
          match mfile with
          | Some path -> (
              let a = load_artifact path in
              match Artifact.extra_repr a "energy" with
              | None ->
                  die "%s carries no \"energy\" response model; retrain with emc train --energy"
                    path
              | Some r ->
                  ( a.Artifact.workload,
                    Artifact.model a,
                    { Emc_regress.Model.technique = "energy";
                      predict = Emc_regress.Repr.eval r; n_params = 0; terms = [];
                      repr = Some r } ))
          | None ->
              let ctx = context o in
              let d = Experiments.prepare ctx w in
              ( w.Workload.name,
                Experiments.rbf_model d,
                Modeling.fit Modeling.Rbf (Experiments.energy_train ctx d) )
        in
        let evals_before =
          Option.value ~default:0 (Emc_obs.Metrics.counter_value "pareto.evaluations")
        in
        let front =
          Searcher.search_pareto ~params ~rng:(Emc_util.Rng.create o.seed) ~cycles_model
            ~energy_model ~march ()
        in
        let evals =
          Option.value ~default:0 (Emc_obs.Metrics.counter_value "pareto.evaluations")
          - evals_before
        in
        let objs =
          Array.of_list
            (List.map (fun p -> [| p.Searcher.p_cycles; p.Searcher.p_energy |]) front)
        in
        if front = [] then die "search returned an empty front";
        if not (Emc_search.Pareto.is_front objs) then
          die "internal error: returned front contains dominated points";
        if json then
          print_endline
            (Emc_obs.Json.to_string (Searcher.pareto_to_json ~seed:o.seed ~evaluations:evals front))
        else begin
          Printf.printf "%s on %s: cycles x energy trade-off (seed %d, %d evaluations)\n"
            wname_shown cname o.seed evals;
          List.iteri
            (fun i p ->
              Printf.printf "  %2d: cycles=%14.0f  energy=%14.6g nJ  %s\n" (i + 1)
                p.Searcher.p_cycles p.Searcher.p_energy
                (Emc_opt.Flags.to_string p.Searcher.p_flags))
            front;
          Printf.printf "front verified non-dominated (%d points)\n" (List.length front)
        end)
  in
  Cmd.v
    (Cmd.info "pareto"
       ~doc:"Multi-objective model-based search: the non-dominated front over predicted \
             cycles and predicted energy (NSGA-II over the compiler parameters).")
    Term.(const run $ workload_arg $ config_arg $ measuring_arg $ model_opt_arg $ pop_arg
          $ gens_arg $ json_arg)

(* ---------------- experiment ---------------- *)

let experiment_cmd =
  let experiments =
    [ ("table3", fun ctx -> ignore (Experiments.table3 ctx));
      ("table4", fun ctx -> ignore (Experiments.table4 ctx));
      ("table5", fun _ -> Experiments.print_table5 ());
      ("table6", fun ctx -> ignore (Experiments.table6 ctx));
      ("table7", fun ctx -> ignore (Experiments.table7 ctx (Experiments.table6 ctx)));
      ("fig3", fun ctx -> ignore (Experiments.fig3 ctx));
      ("fig5", fun ctx -> ignore (Experiments.fig5 ctx));
      ("fig6", fun ctx -> ignore (Experiments.fig6 ctx));
      ("fig7", fun ctx -> ignore (Experiments.fig7 ctx (Experiments.table6 ctx))) ]
  in
  let which_arg =
    let doc = "One of: " ^ String.concat " " (List.map fst experiments) ^ "." in
    Arg.(value
         & pos 0 (choice ~what:"experiment" experiments) (named experiments "table3")
         & info [] ~docv:"EXP" ~doc)
  in
  let run (which, experiment) o =
    with_obs o.trace o.metrics (fun () ->
        let ctx = context o in
        Emc_obs.Trace.with_span ~cat:"phase" which (fun () -> experiment ctx))
  in
  Cmd.v (Cmd.info "experiment" ~doc:"Regenerate one table or figure from the paper.")
    Term.(const run $ which_arg $ measuring_arg)

let fuzz_cmd =
  let budget_arg =
    let doc = "Number of random programs to generate and check." in
    Arg.(value & opt int 200 & info [ "budget" ] ~docv:"N" ~doc)
  in
  let run seed budget jobs trace metrics =
    with_obs trace metrics (fun () ->
        let report = Emc_diff.Diff.fuzz ?jobs ~seed ~budget () in
        Printf.printf "fuzz: %d programs, %d cross-level checks, %d divergence%s (seed %d)\n"
          report.Emc_diff.Diff.programs report.Emc_diff.Diff.checks
          (List.length report.Emc_diff.Diff.divergences)
          (if List.length report.Emc_diff.Diff.divergences = 1 then "" else "s")
          seed;
        List.iter
          (fun (d : Emc_diff.Diff.divergence) ->
            Printf.printf
              "\n--- divergence at case %d (seed %d), level %s\n\
               expected: %s\n\
               got:      %s\n\
               minimized reproducer (%d shrink steps):\n%s"
              d.index d.prog_seed d.level d.expected d.got d.shrink_steps d.min_source)
          report.Emc_diff.Diff.divergences;
        if report.Emc_diff.Diff.divergences <> [] then exit 1)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: random MiniC programs checked across the IR interpreter \
          (unoptimized and optimized), the functional simulator, and the out-of-order commit \
          stream. Exits non-zero on any divergence, after shrinking the reproducer.")
    Term.(const run $ seed_arg $ budget_arg $ jobs_arg $ trace_arg $ metrics_arg)

(* ---------------- fleet daemons / cache maintenance ---------------- *)

let fleet_worker_cmd =
  let register_arg =
    Arg.(value & opt (some string) None
         & info [ "register" ] ~docv:"ADDR"
             ~doc:"Enroll in a store's membership table (heartbeat every --heartbeat \
                   seconds, TTL of three beats) so @$(docv) coordinators discover this \
                   worker mid-run; deregisters on graceful shutdown.")
  in
  let advertise_arg =
    Arg.(value & opt (some string) None
         & info [ "advertise" ] ~docv:"ADDR"
             ~doc:"Address to publish in the membership table (default: the listen \
                   address). Set it when coordinators reach this worker through a \
                   different host/port than it binds.")
  in
  let heartbeat_arg =
    Arg.(value & opt float 2.0
         & info [ "heartbeat" ] ~docv:"SECONDS" ~doc:"Seconds between membership heartbeats.")
  in
  let pidfile_arg =
    Arg.(value & opt (some string) None
         & info [ "pidfile" ] ~docv:"FILE"
             ~doc:"Write the daemon pid to $(docv) (default: <socket>.pid for Unix-socket \
                   listeners) — the handle --drain uses.")
  in
  let drain_arg =
    Arg.(value & flag
         & info [ "drain" ]
             ~doc:"Instead of starting a daemon, gracefully drain the one whose pidfile \
                   matches these options: SIGTERM, wait for in-flight requests to finish \
                   and the pidfile to disappear, then exit 0.")
  in
  let run port socket jobs register advertise heartbeat pidfile drain trace metrics =
    with_obs trace metrics (fun () ->
        let listen = addr_of_args port socket in
        if drain then begin
          let pidfile =
            match (pidfile, Fleet.default_pidfile listen) with
            | Some p, _ | None, Some p -> p
            | None, None -> die "--drain needs --pidfile with a TCP listener"
          in
          match Emc_par.Proc.drain ~pidfile () with
          | Ok pid -> Printf.printf "drained worker (pid %d)\n" pid
          | Error e -> die "--drain: %s" e
        end
        else begin
          let register =
            Option.map
              (fun s -> match Http.parse_addr s with Ok a -> a | Error e -> die "--register: %s" e)
              register
          in
          if heartbeat <= 0.0 then die "--heartbeat must be positive";
          let jobs = match jobs with Some j -> j | None -> Scale.jobs_of_env () in
          Fleet.run_worker ~jobs ?register ?advertise ~heartbeat ?pidfile ~listen ()
        end)
  in
  Cmd.v
    (Cmd.info "fleet-worker"
       ~doc:"Run a measurement worker daemon: POST /measure (a batch of design points in, \
             all three responses per point out, bit-exact hex floats), /healthz, /metrics. \
             With --register it joins an elastic fleet; with --drain it gracefully stops \
             a running one.")
    Term.(const run $ daemon_port_arg $ daemon_socket_arg $ jobs_arg
          $ register_arg $ advertise_arg $ heartbeat_arg $ pidfile_arg $ drain_arg
          $ trace_arg $ metrics_arg)

let fleet_members_cmd =
  let addr_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"ADDR" ~doc:"An $(b,emc fleet-store) address.")
  in
  let run addr =
    match Http.parse_addr addr with
    | Error e -> die "%s" e
    | Ok a -> (
        match Fleet.members a with
        | Error e -> die "members: %s" e
        | Ok ms ->
            List.iter (fun (w, age) -> Printf.printf "%s\tlast heartbeat %.1fs ago\n" w age) ms;
            Printf.printf "%d worker%s registered\n" (List.length ms)
              (if List.length ms = 1 then "" else "s"))
  in
  Cmd.v
    (Cmd.info "fleet-members"
       ~doc:"List the workers currently registered in a fleet store's membership table.")
    Term.(const run $ addr_arg)

let fleet_store_cmd =
  let file_arg =
    Arg.(value & opt (some string) None
         & info [ "file" ] ~docv:"FILE"
             ~doc:"Persist the store in the --cache JSONL line format: loaded on start, \
                   appended per new key; $(b,emc cache) reads it. Its keys are not filed \
                   under a measurement protocol, so --cache does not load them.")
  in
  let run port socket file trace metrics =
    with_obs trace metrics (fun () ->
        Fleet.run_store ?file ~listen:(addr_of_args port socket) ())
  in
  Cmd.v
    (Cmd.info "fleet-store"
       ~doc:"Run the content-addressed result store: POST /lookup and POST /put, keyed by \
             the bare measurement result key (the fleet coordinator is its only client), plus \
             the fleet's membership table (POST /register, POST /deregister, GET /members).")
    Term.(const run $ daemon_port_arg $ daemon_socket_arg $ file_arg $ trace_arg $ metrics_arg)

let fleet_resume_cmd =
  let id_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"RUN_ID" ~doc:"Run id previously given to --run-id.")
  in
  let exec_arg =
    Arg.(value & flag
         & info [ "exec" ]
             ~doc:"Re-execute the run's recorded command line. The journal preloads first, \
                   so completed measurements are not re-simulated.")
  in
  let run id exec =
    match Result_file.journal_info id with
    | Error e -> die "%s" e
    | Ok (ji : Result_file.journal_info) ->
        Printf.printf "run %s: %d completed measurement%s (%d skipped line%s)\n" ji.ji_run_id
          ji.ji_entries
          (if ji.ji_entries = 1 then "" else "s")
          ji.ji_skipped
          (if ji.ji_skipped = 1 then "" else "s");
        Printf.printf "  journal: %s\n  argv: %s\n" ji.ji_path (String.concat " " ji.ji_argv);
        if exec then
          match ji.ji_argv with
          | [] -> die "journal records no command line to re-execute"
          | argv0 :: _ -> (
              try Unix.execv argv0 (Array.of_list ji.ji_argv)
              with Unix.Unix_error (e, _, _) ->
                die "exec %s: %s" argv0 (Unix.error_message e))
  in
  Cmd.v
    (Cmd.info "fleet-resume"
       ~doc:"Inspect a --run-id journal (completed measurements, recorded command line) and \
             optionally re-execute the run; preloading makes the resume re-simulate nothing.")
    Term.(const run $ id_arg $ exec_arg)

let cache_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"A --cache / run-journal / fleet-store JSONL file.")
  in
  let compact_arg =
    Arg.(value & flag
         & info [ "compact" ]
             ~doc:"Rewrite the file in place (tmp + rename), keeping schema headers and the \
                   first occurrence of each key and dropping duplicates, malformed lines and \
                   any torn trailing write.")
  in
  let run file compact =
    let (st : Result_file.stats) =
      if compact then Result_file.compact file else Result_file.stats file
    in
    Printf.printf "%s%s:\n" file (if compact then " (before compaction)" else "");
    Printf.printf
      "  lines %d  entries %d  unique %d  duplicates %d  headers %d  malformed %d%s\n"
      st.cs_lines st.cs_entries st.cs_unique st.cs_duplicates st.cs_headers st.cs_malformed
      (if st.cs_torn then "  (torn trailing line)" else "");
    if st.cs_top_duplicates <> [] then begin
      print_string "  hottest keys:\n";
      List.iter (fun (k, n) -> Printf.printf "    %4dx %s\n" n k) st.cs_top_duplicates
    end;
    if compact then
      Printf.printf "  compacted to %d line%s\n" (st.cs_headers + st.cs_unique)
        (if st.cs_headers + st.cs_unique = 1 then "" else "s")
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:"Report on (and optionally compact) a JSONL measurement cache: entry/duplicate/\
             malformed counts, hit-key statistics, torn-tail detection.")
    Term.(const run $ file_arg $ compact_arg)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info = Cmd.info "emc" ~version:"1.0.0"
      ~doc:"Microarchitecture-sensitive empirical models for compiler optimizations (CGO'07 reproduction)."
  in
  exit (Cmd.eval (Cmd.group ~default info
    [ params_cmd; compile_cmd; simulate_cmd; design_cmd; model_cmd; train_cmd; predict_cmd;
      rank_cmd; serve_cmd; loadgen_cmd; search_cmd; pareto_cmd; fuzz_cmd; experiment_cmd;
      fleet_worker_cmd; fleet_store_cmd; fleet_members_cmd; fleet_resume_cmd; cache_cmd ]))
