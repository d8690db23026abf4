open Emc_util
open Emc_regress
open Emc_workloads

(** Drivers that regenerate every table and figure of the paper's evaluation
    (plus Figure 3 from §4.1). Each function prints a self-contained text
    section — the bench harness runs them all — and returns the underlying
    numbers for programmatic use (tests assert on the returned structures).

    Shared per-workload state (D-optimal designs, measured train/test sets,
    fitted models) is built once and reused across experiments, exactly as
    the paper reuses its 400-point training data. *)

type wdata = {
  workload : Workload.t;
  train : Dataset.t;
  test : Dataset.t;
  models : (Modeling.technique * Model.t) list;
}

type ctx = {
  scale : Scale.t;
  measure : Measure.t;
  rng : Rng.t;
  mutable wdata : (string * wdata) list;
}

let create ?(seed = 42) ?scale ?cache_file ?journal_file () =
  let scale = match scale with Some s -> s | None -> Scale.of_env () in
  { scale; measure = Measure.create ?cache_file ?journal_file scale; rng = Rng.create seed;
    wdata = [] }

let short_name (w : Workload.t) =
  match String.index_opt w.name '.' with
  | Some i -> String.sub w.name (i + 1) (String.length w.name - i - 1)
  | None -> w.name

let progress ?fields fmt = Emc_obs.Log.info ~src:"prepare" ?fields fmt

(** Build (or fetch) the designs, measurements and models for one workload. *)
let prepare ctx (w : Workload.t) =
  match List.assoc_opt w.name ctx.wdata with
  | Some d -> d
  | None ->
      Emc_obs.Trace.with_span ~cat:"phase"
        ~args:(fun () -> [ ("workload", Emc_obs.Json.Str w.name) ])
        "prepare"
        (fun () ->
          let t0 = Unix.gettimeofday () in
          progress "%s: generating D-optimal designs (train=%d test=%d)..." w.name
            ctx.scale.train_n ctx.scale.test_n;
          let rng = Rng.split ctx.rng in
          let space = Params.space_all in
          let train_pts =
            Emc_doe.Doe.generate ~sweeps:ctx.scale.doe_sweeps
              ~cand_factor:ctx.scale.doe_cand_factor rng space ~n:ctx.scale.train_n
          in
          let test_pts = Emc_doe.Doe.lhs rng space ctx.scale.test_n in
          progress "%s: measuring %d+%d design points (jobs=%d)..." w.name ctx.scale.train_n
            ctx.scale.test_n ctx.scale.jobs;
          let train = Modeling.build_dataset ctx.measure w ~variant:Workload.Train train_pts in
          let test = Modeling.build_dataset ctx.measure w ~variant:Workload.Train test_pts in
          progress "%s: fitting models..." w.name;
          let models = List.map (fun t -> (t, Modeling.fit t train)) Modeling.all_techniques in
          let d = { workload = w; train; test; models } in
          ctx.wdata <- (w.name, d) :: ctx.wdata;
          progress
            ~fields:
              [ ("seconds", Emc_obs.Json.Float (Unix.gettimeofday () -. t0));
                ("simulations", Emc_obs.Json.Int ctx.measure.Measure.simulations) ]
            "%s: done in %.1fs (%d simulations so far)" w.name
            (Unix.gettimeofday () -. t0)
            ctx.measure.Measure.simulations;
          d)

let model_of d technique = List.assoc technique d.models

let rbf_model d = model_of d Modeling.Rbf

(** The training design re-labelled with the energy response. The
    simulator memoizes all responses of a run, so after {!prepare} this
    costs zero additional simulations — it only re-reads the cache at the
    same design points. *)
let energy_train ctx d =
  let ys =
    Measure.respond_coded_many ~response:Measure.Energy ctx.measure d.workload
      ~variant:Workload.Train d.train.Dataset.x
  in
  Dataset.create (Array.map Array.copy d.train.Dataset.x) ys

(* ------------------------------------------------------------------ *)
(* Tables 1/2 and 5: parameter listings                                 *)

let print_parameters () =
  Printf.printf "== Tables 1 & 2: modeled parameters ==\n";
  Array.iteri
    (fun i (s : Params.spec) ->
      Printf.printf "  #%-2d %-22s levels=%-3d range=[%g, %g]%s\n" (i + 1) s.Params.name
        (Array.length s.Params.levels) s.Params.levels.(0)
        s.Params.levels.(Array.length s.Params.levels - 1)
        (if s.Params.log2 then " (log2)" else ""))
    Params.all_specs;
  Printf.printf "\n"

let configs = Emc_sim.Config.named

let print_table5 () =
  Printf.printf "== Table 5: target microarchitectural configurations ==\n";
  List.iter
    (fun (name, c) -> Printf.printf "  %-12s %s\n" name (Emc_sim.Config.to_string c))
    configs;
  Printf.printf "\n"

(* ------------------------------------------------------------------ *)
(* Table 3: prediction error of the three techniques                    *)

type table3_row = { bench : string; linear_err : float; mars_err : float; rbf_err : float }

let table3 ctx =
  Printf.printf "== Table 3: average %% prediction error on %d-point test designs ==\n"
    ctx.scale.test_n;
  Printf.printf "  %-22s %10s %10s %10s\n" "Benchmark-Input" "Linear" "MARS" "RBF-RT";
  let rows =
    List.map
      (fun w ->
        let d = prepare ctx w in
        let err t = Metrics.mape (model_of d t).Model.predict d.test in
        let row =
          { bench = w.Workload.name; linear_err = err Modeling.Linear;
            mars_err = err Modeling.Mars; rbf_err = err Modeling.Rbf }
        in
        Printf.printf "  %-22s %10.2f %10.2f %10.2f\n%!" row.bench row.linear_err row.mars_err
          row.rbf_err;
        row)
      Registry.all
  in
  let avg f = Stats.mean (Array.of_list (List.map f rows)) in
  Printf.printf "  %-22s %10.2f %10.2f %10.2f\n\n" "Average" (avg (fun r -> r.linear_err))
    (avg (fun r -> r.mars_err))
    (avg (fun r -> r.rbf_err));
  rows

(* ------------------------------------------------------------------ *)
(* Figure 5: model error vs training set size                          *)

type fig5_point = { n : int; mean_err : float; std_err : float }

let fig5 ctx =
  Printf.printf "== Figure 5: RBF model error vs training set size (mean ± sigma over %d reps) ==\n"
    ctx.scale.fig5_reps;
  let out =
    List.map
      (fun w ->
        let d = prepare ctx w in
        let series =
          List.map
            (fun n ->
              let errs =
                Array.init ctx.scale.fig5_reps (fun _ ->
                    let sub = Dataset.sample ctx.rng d.train n in
                    let m = Modeling.fit Modeling.Rbf sub in
                    Metrics.mape m.Model.predict d.test)
              in
              { n; mean_err = Stats.mean errs; std_err = Stats.sample_stddev errs })
            ctx.scale.fig5_sizes
        in
        Printf.printf "  %-14s %s\n%!" (short_name w)
          (String.concat "  "
             (List.map (fun p -> Printf.sprintf "n=%d: %.1f±%.1f" p.n p.mean_err p.std_err) series));
        (w.Workload.name, series))
      Registry.all
  in
  Printf.printf "\n";
  out

(* ------------------------------------------------------------------ *)
(* Figure 6: actual vs predicted scatter for art, vortex, mcf          *)

let fig6 ?(benchmarks = [ "art"; "vortex"; "mcf" ]) ctx =
  Printf.printf "== Figure 6: actual vs RBF-predicted execution time (test points) ==\n";
  let out =
    List.map
      (fun name ->
        let w = Registry.find name in
        let d = prepare ctx w in
        let m = rbf_model d in
        let pairs =
          Array.mapi (fun i x -> (d.test.Dataset.y.(i), m.Model.predict x)) d.test.Dataset.x
        in
        let corr =
          Stats.correlation (Array.map fst pairs) (Array.map snd pairs)
        in
        Printf.printf "  %-12s correlation=%.4f (n=%d); first points (actual, predicted):\n"
          name corr (Array.length pairs);
        Array.iteri
          (fun i (a, p) ->
            if i < 8 then Printf.printf "     %12.0f %12.0f  (%+.1f%%)\n" a p ((p -. a) /. a *. 100.))
          pairs;
        (name, pairs, corr))
      benchmarks
  in
  Printf.printf "\n";
  out

(* ------------------------------------------------------------------ *)
(* Table 4: significant parameters/interactions from the MARS models    *)

let table4 ?(top = 14) ctx =
  Printf.printf
    "== Table 4: key parameter/interaction coefficients from the MARS models ==\n\
    \   (one-half the change in cycles from low to high setting; negative = improves)\n";
  let names = Params.names Params.all_specs in
  let out =
    List.map
      (fun w ->
        let d = prepare ctx w in
        let m = model_of d Modeling.Mars in
        let dims = Params.n_all in
        let scale_ref = Effects.constant m.Model.predict ~dims in
        let effects = Effects.top_effects m.Model.predict ~dims ~names in
        let significant =
          List.filteri (fun i _ -> i < top)
            (List.filter (fun (_, e) -> Float.abs e > Float.abs scale_ref *. 0.002) effects)
        in
        Printf.printf "  %s (constant %.3g):\n" w.Workload.name scale_ref;
        List.iter (fun (n, e) -> Printf.printf "     %-40s %+.4g\n" n e) significant;
        (w.Workload.name, scale_ref, significant))
      Registry.all
  in
  Printf.printf "\n";
  out

(* ------------------------------------------------------------------ *)
(* Table 6 + Figures 7, Table 7: model-based search                     *)

type search_row = {
  sbench : string;
  config : string;
  prescribed : Emc_opt.Flags.t;
  predicted_cycles : float;
}

let table6 ctx =
  Printf.printf
    "== Table 6: optimization settings prescribed by model-based search (RBF models) ==\n\
    \   flags as constrained/typical/aggressive per parameter\n";
  let out =
    List.map
      (fun w ->
        let d = prepare ctx w in
        let m = rbf_model d in
        let per_config =
          List.map
            (fun (cname, march) ->
              let r =
                Searcher.search ~params:ctx.scale.ga ~rng:(Rng.split ctx.rng) ~model:m ~march ()
              in
              { sbench = w.Workload.name; config = cname; prescribed = r.Searcher.flags;
                predicted_cycles = r.Searcher.predicted_cycles })
            configs
        in
        let f (r : search_row) = Params.of_flags r.prescribed in
        let cols = List.map f per_config in
        let cell i =
          String.concat "/"
            (List.map (fun c -> Printf.sprintf "%g" c.(i)) cols)
        in
        Printf.printf "  %-14s %s\n%!" (short_name w)
          (String.concat " "
             (List.map (fun i -> cell i) (List.init Params.n_compiler Fun.id)));
        (w.Workload.name, per_config))
      Registry.all
  in
  Printf.printf "  %-14s (parameter order: %s)\n\n" "legend"
    (String.concat ", " (Array.to_list (Params.names Params.compiler_specs)));
  out

type fig7_row = {
  fbench : string;
  fconfig : string;
  o3_speedup : float;  (** measured -O3 speedup over -O2, % *)
  predicted_speedup : float;  (** model-predicted speedup of GA settings over -O2, % *)
  actual_speedup : float;  (** measured speedup of GA settings over -O2, % *)
}

let coded_of flags march = Params.code Params.all_specs (Params.raw_of flags march)

let fig7 ctx (table6_out : (string * search_row list) list) =
  Printf.printf "== Figure 7: predicted and actual speedup over -O2 at prescribed settings ==\n";
  Printf.printf "  %-12s %-12s %12s %12s %12s\n" "bench" "config" "O3-speedup%" "predicted%"
    "actual%";
  let out =
    List.concat_map
      (fun (wname, rows) ->
        let w = Registry.find wname in
        let d = prepare ctx w in
        let m = rbf_model d in
        (* the 3 measurements per row are independent: fan them out in one
           batch per workload *)
        let pairs =
          Array.of_list
            (List.concat_map
               (fun (r : search_row) ->
                 let march = List.assoc r.config configs in
                 [ (Emc_opt.Flags.o2, march); (Emc_opt.Flags.o3, march);
                   (r.prescribed, march) ])
               rows)
        in
        let meas = Measure.cycles_many ctx.measure w ~variant:Workload.Train pairs in
        List.mapi
          (fun i (r : search_row) ->
            let march = List.assoc r.config configs in
            let o2 = meas.(3 * i) and o3 = meas.((3 * i) + 1) and best = meas.((3 * i) + 2) in
            let pred_o2 = m.Model.predict (coded_of Emc_opt.Flags.o2 march) in
            let pred_best = m.Model.predict (coded_of r.prescribed march) in
            let pct a b = (a /. b -. 1.0) *. 100.0 in
            let row =
              { fbench = wname; fconfig = r.config; o3_speedup = pct o2 o3;
                predicted_speedup = pct pred_o2 pred_best; actual_speedup = pct o2 best }
            in
            Printf.printf "  %-12s %-12s %12.2f %12.2f %12.2f\n%!" (short_name w) r.config
              row.o3_speedup row.predicted_speedup row.actual_speedup;
            row)
          rows)
      table6_out
  in
  List.iter
    (fun (cname, _) ->
      let rows = List.filter (fun r -> r.fconfig = cname) out in
      let avg f = Stats.mean (Array.of_list (List.map f rows)) in
      Printf.printf "  %-12s %-12s %12.2f %12.2f %12.2f\n" "average" cname
        (avg (fun r -> r.o3_speedup))
        (avg (fun r -> r.predicted_speedup))
        (avg (fun r -> r.actual_speedup)))
    configs;
  Printf.printf "\n";
  out

type table7_row = { tbench : string; tconfig : string; ref_speedup : float }

let table7 ctx (table6_out : (string * search_row list) list) =
  Printf.printf
    "== Table 7: profile-guided scenario — settings from train input, speedup on ref input ==\n";
  (* columns come from the configs list itself, so adding or reordering a
     target configuration cannot silently misalign the table *)
  Printf.printf "  %-12s" "bench";
  List.iter (fun (cname, _) -> Printf.printf " %12s" cname) configs;
  Printf.printf "\n";
  let out =
    List.map
      (fun (wname, rows) ->
        let w = Registry.find wname in
        let pairs =
          Array.of_list
            (List.concat_map
               (fun (r : search_row) ->
                 let march = List.assoc r.config configs in
                 [ (Emc_opt.Flags.o2, march); (r.prescribed, march) ])
               rows)
        in
        let meas = Measure.cycles_many ctx.measure w ~variant:Workload.Ref pairs in
        let per =
          List.mapi
            (fun i (r : search_row) ->
              let o2 = meas.(2 * i) and best = meas.((2 * i) + 1) in
              { tbench = wname; tconfig = r.config; ref_speedup = (o2 /. best -. 1.0) *. 100.0 })
            rows
        in
        Printf.printf "  %-12s" (short_name w);
        List.iter
          (fun (cname, _) ->
            match List.find_opt (fun row -> row.tconfig = cname) per with
            | Some row -> Printf.printf " %12.2f" row.ref_speedup
            | None -> Printf.printf " %12s" "-")
          configs;
        Printf.printf "\n%!";
        per)
      table6_out
  in
  let flat = List.concat out in
  List.iter
    (fun (cname, _) ->
      let rows = List.filter (fun r -> r.tconfig = cname) flat in
      Printf.printf "  average %-12s %.2f%%\n" cname
        (Stats.mean (Array.of_list (List.map (fun r -> r.ref_speedup) rows))))
    configs;
  Printf.printf "\n";
  out

(* ------------------------------------------------------------------ *)
(* Figure 3: art, unroll factor x I-cache size; linear inadequacy       *)

type fig3_cell = { unroll : int; icache_kb : int; cycles : float }

let fig3 ctx =
  Printf.printf
    "== Figure 3: art execution time vs max-unroll-times and I-cache size ==\n";
  let w = Registry.find "art" in
  let unrolls = [ 1; 2; 4; 6; 8; 10; 12; 16 ] in
  let icaches = [ 8; 32; 128 ] in
  let grid = List.concat_map (fun ic -> List.map (fun u -> (u, ic)) unrolls) icaches in
  let pairs =
    Array.of_list
      (List.map
         (fun (u, ic) ->
           (* aggressive inlining + unrolling so code size actually tracks
              the unroll factor, as in the paper's gcc binaries *)
           let flags =
             if u <= 1 then Emc_opt.Flags.o3
             else { Emc_opt.Flags.o3 with unroll_loops = true; max_unroll_times = u;
                    max_unrolled_insns = 300; max_inline_insns_auto = 150;
                    inline_unit_growth = 75 }
           in
           (flags, { Emc_sim.Config.typical with icache_kb = ic }))
         grid)
  in
  let meas = Measure.cycles_many ctx.measure w ~variant:Workload.Train pairs in
  let cells =
    List.mapi (fun i (u, ic) -> { unroll = u; icache_kb = ic; cycles = meas.(i) }) grid
  in
  List.iter
    (fun ic ->
      Printf.printf "  icache=%3dKB:" ic;
      List.iter
        (fun cell -> if cell.icache_kb = ic then Printf.printf " u%d=%.0f" cell.unroll cell.cycles)
        cells;
      Printf.printf "\n%!")
    icaches;
  (* linear model on the 8KB series, as in the figure *)
  let series8 = List.filter (fun c -> c.icache_kb = 8) cells in
  let xs = Array.of_list (List.map (fun c -> [| float_of_int c.unroll |]) series8) in
  let ys = Array.of_list (List.map (fun c -> c.cycles) series8) in
  let lin = Linear.fit ~interactions:false (Dataset.create xs ys) in
  Printf.printf "  linear fit (8KB):";
  List.iter
    (fun u -> Printf.printf " u%d=%.0f" u (lin.Model.predict [| float_of_int u |]))
    unrolls;
  Printf.printf "\n   (a straight line cannot capture the improve-then-degrade shape)\n\n";
  cells
