(** The benchmark harness.

    Running [dune exec bench/main.exe] regenerates every table and figure of
    the paper's evaluation (Tables 3–7, Figures 5–7, plus Figure 3 from
    §4.1), then runs the ablation studies called out in DESIGN.md, then a
    set of Bechamel micro-benchmarks of the computational kernels behind
    each table. The protocol scale is selected with EMC_SCALE=quick|full
    (see {!Emc_core.Scale}); quick is the default and completes in minutes.

    Pass [--bechamel-only] to skip the experiments, or [--no-bechamel] to
    skip the micro-benchmarks. [--filter SUB] restricts the micro-benchmarks
    to kernels whose name contains SUB ([--filter sim] is the simulator-only
    run CI tracks), and [--json PATH] writes the kernel timings as
    machine-readable JSON (see BENCH_sim.json at the repo root). *)

open Emc_core
open Emc_regress
open Emc_workloads

let t_start = Unix.gettimeofday ()

let hr title =
  Printf.printf "\n%s  [t=%.0fs]\n%s\n%!" title (Unix.gettimeofday () -. t_start)
    (String.make (String.length title) '=')

(* A harness phase: section header on stdout plus a span in the trace file
   (EMC_TRACE=<file>), so a Perfetto timeline shows where the wall clock
   went — prepare vs tables vs ablations vs micro-benchmarks. *)
let phase title f = hr title; Emc_obs.Trace.with_span ~cat:"phase" title f

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)

let ablation_doe (ctx : Experiments.ctx) =
  Printf.printf "== Ablation: D-optimal design vs random vs LHS (gzip, RBF models) ==\n%!";
  let w = Registry.find "gzip" in
  let d = Experiments.prepare ctx w in
  let n = ctx.scale.Scale.train_n in
  let rng = Emc_util.Rng.split ctx.rng in
  let space = Params.space_all in
  let designs =
    [ ("d-optimal", d.Experiments.train);
      ("random",
       Modeling.build_dataset ctx.measure w ~variant:Workload.Train
         (Emc_doe.Doe.random_design rng space n));
      ("lhs",
       Modeling.build_dataset ctx.measure w ~variant:Workload.Train
         (Emc_doe.Doe.lhs rng space n)) ]
  in
  List.iter
    (fun (name, train) ->
      let m = Modeling.fit Modeling.Rbf train in
      let lin = Modeling.fit Modeling.Linear train in
      Printf.printf "  %-10s logdet=%8.2f  rbf-mape=%6.2f%%  linear-mape=%6.2f%%\n%!" name
        (Emc_doe.Doe.log_det_information train.Dataset.x)
        (Metrics.mape m.Model.predict d.Experiments.test)
        (Metrics.mape lin.Model.predict d.Experiments.test))
    designs;
  Printf.printf "\n"

let ablation_rbf (ctx : Experiments.ctx) =
  Printf.printf "== Ablation: RBF kernel choice (test MAPE %%) ==\n";
  Printf.printf "  %-14s %14s %14s %14s\n" "bench" "multiquadric" "gaussian" "inv-multiquad";
  List.iter
    (fun w ->
      let d = Experiments.prepare ctx w in
      let err k =
        let m = Rbf.fit ~kernel:k d.Experiments.train in
        Metrics.mape m.Model.predict d.Experiments.test
      in
      Printf.printf "  %-14s %14.2f %14.2f %14.2f\n%!" (Experiments.short_name w)
        (err Rbf.Multiquadric) (err Rbf.Gaussian) (err Rbf.InverseMultiquadric))
    Registry.all;
  Printf.printf "\n"

let ablation_smarts (ctx : Experiments.ctx) =
  Printf.printf "== Ablation: SMARTS sampling vs full detailed simulation ==\n";
  List.iter
    (fun name ->
      let w = Registry.find name in
      let flags = Emc_opt.Flags.o2 in
      let march = Emc_sim.Config.typical in
      let prog = Measure.compile ctx.measure w flags ~issue_width:march.issue_width in
      let arrays = w.Workload.arrays ~scale:ctx.scale.Scale.workload_scale ~variant:Workload.Train in
      let time f =
        let t0 = Unix.gettimeofday () in
        let r = f () in
        (r, Unix.gettimeofday () -. t0)
      in
      let full, tf = time (fun () -> Emc_sim.Smarts.run_full march prog ~inputs:arrays) in
      let smp, ts = time (fun () -> Emc_sim.Smarts.run_sampled march prog ~inputs:arrays) in
      Printf.printf
        "  %-10s full=%12.0fcy (%5.2fs)  sampled=%12.0fcy (%5.2fs, %d units, ci=%.3f) err=%+.2f%%\n%!"
        name full.Emc_sim.Smarts.cycles tf smp.Emc_sim.Smarts.cycles ts
        smp.Emc_sim.Smarts.sampled_units smp.Emc_sim.Smarts.ci_rel
        (100.0 *. (smp.Emc_sim.Smarts.cycles -. full.Emc_sim.Smarts.cycles)
         /. full.Emc_sim.Smarts.cycles))
    [ "gzip"; "mcf"; "mesa" ];
  Printf.printf "\n"

let ablation_search (ctx : Experiments.ctx) =
  Printf.printf "== Ablation: GA vs random search vs hill climbing (predicted cycles, typical) ==\n";
  Printf.printf "  %-14s %14s %14s %14s\n" "bench" "GA" "random(2.4k)" "hill-climb";
  List.iter
    (fun w ->
      let d = Experiments.prepare ctx w in
      let m = Experiments.rbf_model d in
      let march = Emc_sim.Config.typical in
      let rng () = Emc_util.Rng.split ctx.rng in
      let ga = Searcher.search ~params:ctx.scale.Scale.ga ~rng:(rng ()) ~model:m ~march () in
      let rs = Searcher.search_random ~rng:(rng ()) ~model:m ~march ~evals:2400 () in
      let hc = Searcher.search_hill_climb ~rng:(rng ()) ~model:m ~march ~restarts:3 () in
      Printf.printf "  %-14s %14.0f %14.0f %14.0f\n%!" (Experiments.short_name w)
        ga.Searcher.predicted_cycles rs.Searcher.predicted_cycles hc.Searcher.predicted_cycles)
    Registry.all;
  Printf.printf "\n"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one per table/figure kernel               *)

(* Kernel dependencies are lazy so that a filtered run only pays for what
   the selected kernels actually need: `--filter sim` in CI skips dataset
   preparation and model fitting entirely and goes straight to the
   simulator kernels. Each kernel builder forces its inputs *before*
   staging the timed closure, so laziness never pollutes a measurement. *)
let bechamel_suite ?filter ?json_path (ctx : Experiments.ctx) =
  let gzip = Registry.find "gzip" in
  let d = lazy (Experiments.prepare ctx gzip) in
  let rbf = lazy (Experiments.rbf_model (Lazy.force d)) in
  let march = Emc_sim.Config.typical in
  let march_coded = Searcher.coded_march march in
  let rng = Emc_util.Rng.create 17 in
  let space = Params.space_all in
  let candidates = lazy (Emc_doe.Doe.lhs rng space 200) in
  let prog = lazy (Measure.compile ctx.measure gzip Emc_opt.Flags.o2 ~issue_width:4) in
  let arrays = lazy (gzip.Workload.arrays ~scale:0.05 ~variant:Workload.Train) in
  (* mcf has the largest inputs and is memory-bound, so both its
     per-simulation set-up cost and its idle detailed cycles show *)
  let mcf =
    lazy
      (let w = Registry.find "mcf" in
       ( Measure.compile ctx.measure w Emc_opt.Flags.o2 ~issue_width:march.issue_width,
         w.Workload.arrays ~scale:Scale.tiny.Scale.workload_scale ~variant:Workload.Train ))
  in
  let art =
    lazy
      (match
         Artifact.of_model ~workload:"164.gzip" ~scale:ctx.scale.Scale.name ~seed:42
           ~train_n:(Dataset.size (Lazy.force d).Experiments.train)
           (Lazy.force rbf)
       with
      | Ok a -> a
      | Error e -> failwith e)
  in
  let art_text = lazy (Emc_obs.Json.to_string (Artifact.to_json (Lazy.force art))) in
  let open Bechamel in
  let kernels =
    [
      (* Table 3 kernels: fitting each model family *)
      ( "table3/fit-linear",
        fun () ->
          let train = (Lazy.force d).Experiments.train in
          Staged.stage (fun () -> ignore (Modeling.fit Modeling.Linear train)) );
      ( "table3/fit-rbf",
        fun () ->
          let train = (Lazy.force d).Experiments.train in
          Staged.stage (fun () -> ignore (Modeling.fit Modeling.Rbf train)) );
      (* Table 4 kernel: effect extraction *)
      ( "table4/effects",
        fun () ->
          let rbf = Lazy.force rbf in
          Staged.stage (fun () ->
              ignore
                (Effects.top_effects rbf.Model.predict ~dims:Params.n_all
                   ~names:(Params.names Params.all_specs))) );
      (* Figure 5/6 kernel: model evaluation over a test design *)
      ( "fig5-6/predict-test-set",
        fun () ->
          let rbf = Lazy.force rbf and test = (Lazy.force d).Experiments.test in
          Staged.stage (fun () -> ignore (Metrics.mape rbf.Model.predict test)) );
      (* Table 6 / Figure 7 kernel: GA fitness evaluations *)
      ( "table6/ga-fitness-x100",
        fun () ->
          let rbf = Lazy.force rbf in
          Staged.stage (fun () ->
              for _ = 1 to 100 do
                ignore
                  (rbf.Model.predict
                     (Array.append
                        (Emc_doe.Doe.random_point rng Params.space_compiler)
                        march_coded))
              done) );
      (* serving kernels: artifact text round-trip and served prediction *)
      ( "serve/artifact-load",
        fun () ->
          let art_text = Lazy.force art_text in
          Staged.stage (fun () ->
              match Result.bind (Emc_obs.Json.parse art_text) Artifact.of_json with
              | Ok a -> ignore (Artifact.model a)
              | Error e -> failwith e) );
      ( "serve/artifact-save",
        fun () ->
          let art = Lazy.force art in
          Staged.stage (fun () -> ignore (Emc_obs.Json.to_string (Artifact.to_json art))) );
      ( "serve/repr-eval-x100",
        fun () ->
          let art = Lazy.force art in
          Staged.stage (fun () ->
              for _ = 1 to 100 do
                ignore
                  (Repr.eval art.Artifact.repr
                     (Array.append
                        (Emc_doe.Doe.random_point rng Params.space_compiler)
                        march_coded))
              done) );
      (* the multiplexed daemon's /predict, split into its two halves:
         incremental request parsing and predict+render *)
      ( "serve/http-parse-request",
        fun () ->
          let body =
            Emc_obs.Json.to_string
              (Emc_obs.Json.Obj
                 [ ("point",
                    Emc_obs.Json.List
                      (List.init Params.n_all (fun i ->
                           Emc_obs.Json.Float (Float.of_int (i mod 5) /. 5.0)))) ])
          in
          let text =
            Printf.sprintf
              "POST /predict HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
               Content-Length: %d\r\n\r\n%s"
              (String.length body) body
          in
          Staged.stage (fun () ->
              for _ = 1 to 100 do
                match Emc_serve.Http.parse_request text with
                | Emc_serve.Http.Parsed _ -> ()
                | _ -> failwith "bench request did not parse"
              done) );
      ( "serve/predict-render",
        fun () ->
          let art = Lazy.force art in
          let hot = Emc_serve.Serve.make_hot art in
          let body =
            Emc_obs.Json.to_string
              (Emc_obs.Json.Obj
                 [ ("point",
                    Emc_obs.Json.List
                      (List.init Params.n_all (fun i ->
                           Emc_obs.Json.Float (Float.of_int (i mod 5) /. 5.0)))) ])
          in
          let req =
            { Emc_serve.Http.meth = "POST"; path = "/predict"; query = []; headers = [];
              body }
          in
          Staged.stage (fun () ->
              for _ = 1 to 100 do
                match Emc_serve.Serve.handle_into hot req with
                | 200, _ -> ()
                | s, _ -> failwith (Printf.sprintf "bench predict returned %d" s)
              done) );
      (* ranking-model fit over the training design *)
      ( "regress/rank-fit",
        fun () ->
          let train = (Lazy.force d).Experiments.train in
          Staged.stage (fun () ->
              ignore
                (Rank.fit ~rng:(Emc_util.Rng.create 17)
                   ~names:(Params.names Params.all_specs) train)) );
      (* MARS fit (forward pass, GCV pruning, refit) over the same design *)
      ( "regress/mars-fit",
        fun () ->
          let train = (Lazy.force d).Experiments.train in
          Staged.stage (fun () ->
              ignore (Mars.fit ~names:(Params.names Params.all_specs) train)) );
      (* the linear fit with interactions (351 columns at 25 factors, so one
         351² Cholesky) and the RBF fit with its BIC size search, over the
         same design *)
      ( "regress/linear-fit",
        fun () ->
          let train = (Lazy.force d).Experiments.train in
          Staged.stage (fun () ->
              ignore (Linear.fit ~interactions:true ~names:(Params.names Params.all_specs) train))
      );
      ( "regress/rbf-fit",
        fun () ->
          let train = (Lazy.force d).Experiments.train in
          Staged.stage (fun () -> ignore (Rbf.fit ~kernel:Rbf.Multiquadric train)) );
      (* multi-objective search: one full NSGA-II run at a small budget *)
      ( "search/pareto-front",
        fun () ->
          let rbf = Lazy.force rbf in
          (* a monotone-decreasing transform of the same model: a perfect
             trade-off, so the front (and the crowding machinery) is
             exercised at full population size *)
          let energy =
            { rbf with Model.technique = "energy";
              predict = (fun x -> 1e12 /. rbf.Model.predict x) }
          in
          let params =
            { Emc_search.Ga.default_params with pop_size = 24; generations = 8 }
          in
          Staged.stage (fun () ->
              ignore
                (Searcher.search_pareto ~params ~rng:(Emc_util.Rng.create 17)
                   ~cycles_model:rbf ~energy_model:energy ~march ())) );
      (* §3 kernels: D-optimal exchange. Each run gets its own generator,
         so every run starts from the same subset and does the same work. *)
      ( "doe/d-optimal-n40",
        fun () ->
          let candidates = Lazy.force candidates in
          Staged.stage (fun () ->
              ignore
                (Emc_doe.Doe.d_optimal ~sweeps:1 (Emc_util.Rng.create 17) space ~n:40
                   ~candidates)) );
      (* the training design of a quick-scale `emc model` *)
      ( "doe/generate-quick",
        fun () ->
          let q = Scale.quick in
          Staged.stage (fun () ->
              ignore
                (Emc_doe.Doe.generate ~sweeps:q.Scale.doe_sweeps
                   ~cand_factor:q.Scale.doe_cand_factor (Emc_util.Rng.create 17) space
                   ~n:q.Scale.train_n)) );
      (* measurement kernels: compilation and simulation *)
      ( "measure/compile-O3",
        fun () ->
          Staged.stage (fun () ->
              ignore
                (Emc_codegen.Compiler.compile_source ~issue_width:4 Emc_opt.Flags.o3
                   gzip.Workload.source)) );
      (* both halves of -fschedule-insns2 alone on gzip at O3: the pre-RA
         pass over the O3 IR built with scheduling off, and the post-RA pass
         over the unscheduled machine code of the O3 IR. Each call first
         puts both inputs back: the blocks' saved instruction lists, and a
         blit of the saved machine code *)
      ( "measure/compile-schedule-O3",
        fun () ->
          let o3 = Emc_opt.Flags.o3 in
          let unscheduled = { o3 with Emc_opt.Flags.schedule_insns2 = false } in
          let optimize flags =
            Emc_opt.Pipeline.optimize ~issue_width:4 flags
              (Emc_lang.Minic.compile_exn gzip.Workload.source)
          in
          let ir = optimize unscheduled in
          let blocks = List.concat_map (fun (_, f) -> Array.to_list f.Emc_ir.Ir.blocks) ir.funcs in
          let instrs = List.map (fun (b : Emc_ir.Ir.block) -> b.instrs) blocks in
          let prog = Emc_codegen.Compiler.emit ~issue_width:4 unscheduled (optimize o3) in
          let insts = Array.copy prog.Emc_isa.Isa.insts in
          let machine = Emc_isa.Isa.machine_for_width 4 in
          Staged.stage (fun () ->
              List.iter2 (fun (b : Emc_ir.Ir.block) is -> b.instrs <- is) blocks instrs;
              ignore (Emc_opt.Sched.run ~issue_width:4 ir);
              Array.blit insts 0 prog.insts 0 (Array.length insts);
              ignore (Emc_codegen.Postsched.run machine prog)) );
      ( "measure/simulate-50k-instrs",
        fun () ->
          let prog = Lazy.force prog and inputs = Lazy.force arrays in
          Staged.stage (fun () ->
              let ooo = Emc_sim.Ooo.create ~inputs march prog in
              Emc_sim.Ooo.run_detailed ooo ~instrs:50_000) );
      ( "measure/simulate-warming-50k",
        fun () ->
          let prog = Lazy.force prog and inputs = Lazy.force arrays in
          Staged.stage (fun () ->
              let ooo = Emc_sim.Ooo.create ~inputs march prog in
              Emc_sim.Ooo.run_warming ooo ~instrs:50_000) );
      (* what a SMARTS attempt of a Measure pays before it simulates: a
         machine on a store the kernel keeps. Before every call the pages
         one whole run of the program writes are marked dirty again, as
         the last attempt leaves them, so each call restores those pages
         and resets the cache arrays in place *)
      ( "measure/simulate-setup-mcf",
        fun () ->
          let prog, inputs = Lazy.force mcf in
          let store = Emc_sim.Ooo.store () in
          ignore (Emc_sim.Func.run (Emc_sim.Ooo.func (Emc_sim.Ooo.create ~store ~inputs march prog)));
          let memory = Option.get store.Emc_sim.Ooo.memory in
          let written = Bytes.copy memory.Emc_sim.Func.int_dirty in
          Staged.stage (fun () ->
              Bytes.blit written 0 memory.Emc_sim.Func.int_dirty 0 (Bytes.length written);
              ignore (Emc_sim.Ooo.create ~store ~inputs march prog)) );
      (* what a Measure pays per design point: one sampled run at tiny
         scale's SMARTS parameters, every attempt on one reused store *)
      ( "measure/simulate-point-mcf",
        fun () ->
          let prog, inputs = Lazy.force mcf in
          let params = Option.get Scale.tiny.Scale.smarts and store = Emc_sim.Ooo.store () in
          Staged.stage (fun () ->
              ignore (Emc_sim.Smarts.run_sampled ~params ~store march prog ~inputs)) );
      ( "measure/simulate-detailed-mcf",
        fun () ->
          let prog, inputs = Lazy.force mcf in
          Staged.stage (fun () ->
              let ooo = Emc_sim.Ooo.create ~inputs march prog in
              Emc_sim.Ooo.run_detailed ooo ~instrs:50_000) );
      (* the result-file record: the bit-exact hex-float JSONL line shared
         by --cache files, run journals and the store, encoded and
         classified back by Result_file — the per-result overhead of
         persisting a measurement *)
      ( "fleet/cache-line-roundtrip-x100",
        fun () ->
          Staged.stage (fun () ->
              for i = 1 to 100 do
                let line =
                  Emc_core.Result_file.line
                    (Printf.sprintf "Cycles|164.gzip|train|O%d|typical" (i mod 4))
                    (1.0 /. float_of_int i)
                in
                match Emc_core.Result_file.classify line with
                | `Entry (_, f) -> ignore f
                | `Header | `Malformed -> failwith "bad record"
              done) );
      (* the full coordinator↔worker codec for one 32-point chunk:
         serialize the /measure request, parse it as the worker does,
         serialize the result triples, parse them back — the per-chunk
         CPU cost of pipelined dispatch, everything but the socket *)
      ( "fleet/dispatch-pipeline",
        fun () ->
          let points = Array.make 32 (Emc_opt.Flags.o3, march) in
          let triples =
            Array.init 32 (fun i ->
                { Emc_core.Measure.t_cycles = 1.0e6 +. float_of_int i;
                  t_energy = 3.5e5 +. float_of_int i;
                  t_code_size = 512.0 })
          in
          Staged.stage (fun () ->
              let body =
                Emc_fleet.Fleet.measure_body gzip ~variant:Workload.Train
                  ~workload_scale:0.05 ~smarts:None points
              in
              (match Emc_fleet.Fleet.measure_request_of_body body with
              | Ok mr -> assert (Array.length mr.Emc_fleet.Fleet.mr_points = 32)
              | Error e -> failwith e);
              let rbody = Emc_fleet.Fleet.result_body triples in
              match Emc_fleet.Fleet.triples_of_body ~expect:32 rbody with
              | Ok ts -> ignore ts
              | Error e -> failwith e) );
      (* the coordinator's scheduler alone, no sockets: every decision of
         one 1,024-point batch at chunk 4 and depth 2 over 4 fake workers
         that answer their dispatches in the order sent *)
      ( "fleet/schedule-batch",
        fun () ->
          let module S = Emc_fleet.Fleet.Sched in
          let triples =
            Array.make 4 { Emc_core.Measure.t_cycles = 1.0; t_energy = 2.0; t_code_size = 3.0 }
          in
          Staged.stage (fun () ->
              let s = S.create ~depth:2 ~elastic:false [ "w0"; "w1"; "w2"; "w3" ] in
              ignore (S.plan s ~now:0.0 ~chunk:4 1024);
              let sent = Queue.create () in
              let rec drain () =
                match S.next s ~now:0.0 with
                | Some (S.Send (w, _)) -> Queue.push w sent; drain ()
                | Some _ -> drain ()
                | None -> ()
              in
              drain ();
              while not (S.finished s) do
                S.handle s ~now:0.0 (S.Completed (Queue.pop sent, triples));
                drain ()
              done) );
    ]
  in
  let selected =
    match filter with
    | None -> kernels
    | Some sub ->
        List.filter
          (fun (name, _) ->
            let len = String.length sub in
            let n = String.length name in
            let rec at i = i + len <= n && (String.sub name i len = sub || at (i + 1)) in
            at 0)
          kernels
  in
  if selected = [] then
    Printf.printf "  no kernel matches filter %S\n%!" (Option.value filter ~default:"")
  else begin
    let tests = List.map (fun (name, mk) -> Test.make ~name (mk ())) selected in
    let test = Test.make_grouped ~name:"emc" ~fmt:"%s %s" tests in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:None () in
    let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] test in
    let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
    let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
    Printf.printf "  %-34s %16s\n" "kernel" "ns/run";
    let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) results [] in
    let rows = List.sort compare rows in
    let strip_group name =
      let prefix = "emc " in
      if String.length name > 4 && String.sub name 0 4 = prefix then
        String.sub name 4 (String.length name - 4)
      else name
    in
    let timings =
      List.filter_map
        (fun (name, o) ->
          match Analyze.OLS.estimates o with
          | Some (est :: _) ->
              Printf.printf "  %-34s %16.0f\n" name est;
              Some (strip_group name, est)
          | _ ->
              Printf.printf "  %-34s %16s\n" name "n/a";
              None)
        rows
    in
    Printf.printf "%!";
    match json_path with
    | None -> ()
    | Some path ->
        (* machine-readable kernel timings: the perf trajectory tracked in
           BENCH_sim.json and uploaded by CI on every run *)
        let j =
          Emc_obs.Json.Obj
            [
              ("schema", Emc_obs.Json.Str "emc-bench/1");
              ("scale", Emc_obs.Json.Str ctx.scale.Scale.name);
              ("unix_time", Emc_obs.Json.Int (int_of_float (Unix.time ())));
              ( "kernels",
                Emc_obs.Json.List
                  (List.map
                     (fun (name, ns) ->
                       Emc_obs.Json.Obj
                         [ ("name", Emc_obs.Json.Str name);
                           ("ns_per_run", Emc_obs.Json.Float ns) ])
                     timings) );
            ]
        in
        let oc = open_out path in
        output_string oc (Emc_obs.Json.to_string j);
        output_char oc '\n';
        close_out oc;
        Printf.printf "  wrote %s\n%!" path
  end

(* ------------------------------------------------------------------ *)

let () =
  (* the harness is a progress-reporting tool: keep the prepare/fit progress
     events visible unless the user asked for something else via EMC_LOG *)
  if Sys.getenv_opt "EMC_LOG" = None then Emc_obs.Log.set_level Emc_obs.Log.Info;
  let args = Array.to_list Sys.argv in
  let bechamel_only = List.mem "--bechamel-only" args in
  let no_bechamel = List.mem "--no-bechamel" args in
  (* --jobs N overrides EMC_JOBS for the measurement fan-out *)
  let rec jobs_of = function
    | "--jobs" :: n :: _ -> int_of_string_opt n
    | _ :: rest -> jobs_of rest
    | [] -> None
  in
  (* --filter SUB runs only micro-benchmark kernels whose name contains SUB
     (e.g. --filter sim for the simulator kernels); --json PATH additionally
     writes the kernel timings as machine-readable JSON *)
  let rec opt_of flag = function
    | f :: v :: _ when f = flag -> Some v
    | _ :: rest -> opt_of flag rest
    | [] -> None
  in
  let filter = opt_of "--filter" args in
  let json_path = opt_of "--json" args in
  let t0 = Unix.gettimeofday () in
  let scale =
    match jobs_of args with
    | Some j -> { (Scale.of_env ()) with Scale.jobs = j }
    | None -> Scale.of_env ()
  in
  let cache_file = Sys.getenv_opt "EMC_CACHE" in
  let ctx = Experiments.create ~scale ?cache_file () in
  Printf.printf
    "EMC reproduction harness — scale=%s (train=%d, test=%d, workload-scale=%.2f, jobs=%d%s)\n%!"
    ctx.scale.Scale.name ctx.scale.Scale.train_n ctx.scale.Scale.test_n
    ctx.scale.Scale.workload_scale ctx.scale.Scale.jobs
    (match cache_file with Some f -> Printf.sprintf ", cache=%s" f | None -> "");
  if not bechamel_only then begin
    phase "Parameter space" (fun () ->
        Experiments.print_parameters ();
        Experiments.print_table5 ());
    phase "Model accuracy (Tables 3-4, Figures 5-6)" (fun () ->
        ignore (Experiments.table3 ctx);
        ignore (Experiments.fig5 ctx);
        ignore (Experiments.fig6 ctx);
        ignore (Experiments.table4 ctx));
    phase "Figure 3 (art: unroll x I-cache)" (fun () -> ignore (Experiments.fig3 ctx));
    phase "Model-based search (Table 6, Figure 7, Table 7)" (fun () ->
        let t6 = Experiments.table6 ctx in
        ignore (Experiments.fig7 ctx t6);
        ignore (Experiments.table7 ctx t6));
    phase "Ablations" (fun () ->
        ablation_doe ctx;
        ablation_rbf ctx;
        ablation_smarts ctx;
        ablation_search ctx)
  end;
  if not no_bechamel then
    phase "Bechamel micro-benchmarks (kernels behind each table/figure)" (fun () ->
        bechamel_suite ?filter ?json_path ctx);
  Printf.printf "\nTotal: %d simulator runs, %d compilations, %.1fs wall clock.\n"
    ctx.measure.Measure.simulations ctx.measure.Measure.compiles
    (Unix.gettimeofday () -. t0)
