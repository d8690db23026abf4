(** Core-methodology tests: parameter coding/decoding, flag/march
    conversions, the measurement layer (caching, configuration sensitivity),
    and a miniature end-to-end run of the Figure-1 modeling loop. *)

open Emc_core

let cb = Alcotest.(check bool)
let ci = Alcotest.(check int)

(* ---------------- parameter space ---------------- *)

let test_space_shape () =
  ci "14 compiler parameters" 14 Params.n_compiler;
  ci "11 march parameters" 11 Params.n_march;
  ci "25 in total" 25 Params.n_all;
  (* level counts straight from Tables 1 and 2 *)
  let counts = Array.map (fun s -> Array.length s.Params.levels) Params.all_specs in
  Alcotest.(check (array int)) "levels per parameter"
    [| 2; 2; 2; 2; 2; 2; 2; 2; 2; 11; 11; 9; 9; 21; 2; 5; 4; 5; 5; 2; 3; 6; 4; 11; 21 |]
    counts

let test_code_decode_roundtrip_all_levels () =
  Array.iteri
    (fun i spec ->
      Array.iter
        (fun level ->
          let coded = Params.code_one spec level in
          cb
            (Printf.sprintf "%s: coded %g in [-1,1]" spec.Params.name coded)
            true
            (coded >= -1.0 -. 1e-9 && coded <= 1.0 +. 1e-9);
          let back = Params.decode_one spec coded in
          Alcotest.(check (float 1e-6))
            (Printf.sprintf "param %d (%s) level %g roundtrips" i spec.Params.name level)
            level back)
        spec.Params.levels)
    Params.all_specs

let test_decode_snaps_to_levels () =
  let spec = Params.march_specs.(1) (* bpred-size: 512..8192, log2 *) in
  let v = Params.decode_one spec 0.1 in
  cb "snapped to a real level" true (Array.exists (fun l -> l = v) spec.Params.levels)

let test_flags_roundtrip () =
  List.iter
    (fun flags ->
      let raw = Params.of_flags flags in
      let back = Params.to_flags raw in
      cb "flags roundtrip" true (back = flags))
    [ Emc_opt.Flags.o0; Emc_opt.Flags.o2; Emc_opt.Flags.o3;
      { Emc_opt.Flags.o3 with max_unroll_times = 12; inline_call_cost = 13 } ]

let test_march_roundtrip () =
  List.iter
    (fun march ->
      let raw = Array.append (Array.make Params.n_compiler 0.0) (Params.of_march march) in
      let back = Params.to_march raw in
      cb "march roundtrip" true (back = march))
    [ Emc_sim.Config.constrained; Emc_sim.Config.typical; Emc_sim.Config.aggressive ]

let test_table5_configs_on_grid () =
  (* every Table-5 configuration must be representable in the coded space *)
  List.iter
    (fun march ->
      let coded = Params.code Params.all_specs (Params.raw_of Emc_opt.Flags.o2 march) in
      let flags', march' = Params.configs_of_coded coded in
      cb "march survives coding" true (march' = march);
      cb "flags survive coding" true (flags' = Emc_opt.Flags.o2))
    [ Emc_sim.Config.constrained; Emc_sim.Config.typical; Emc_sim.Config.aggressive ]

let test_coded_levels_sorted_distinct () =
  Array.iter
    (fun levels ->
      let l = Array.to_list levels in
      cb "coded levels strictly increasing" true
        (List.sort_uniq compare l = l && List.sort compare l = l))
    (Params.coded_levels Params.all_specs)

(* ---------------- scale ---------------- *)

let test_scales () =
  cb "full matches the paper protocol" true
    (Scale.full.Scale.train_n = 400 && Scale.full.Scale.test_n = 100);
  cb "quick smaller than full" true (Scale.quick.Scale.train_n < Scale.full.Scale.train_n);
  cb "tiny smaller than quick" true (Scale.tiny.Scale.train_n < Scale.quick.Scale.train_n)

(* ---------------- measurement layer ---------------- *)

let small_measure () = Measure.create { Scale.tiny with workload_scale = 0.05 }

let test_measure_caches () =
  let m = small_measure () in
  let w = Emc_workloads.Registry.find "gzip" in
  let c1 =
    Measure.cycles m w ~variant:Emc_workloads.Workload.Train Emc_opt.Flags.o2
      Emc_sim.Config.typical
  in
  let sims = m.Measure.simulations in
  let c2 =
    Measure.cycles m w ~variant:Emc_workloads.Workload.Train Emc_opt.Flags.o2
      Emc_sim.Config.typical
  in
  Alcotest.(check (float 0.0)) "cached result identical" c1 c2;
  ci "no new simulation" sims m.Measure.simulations

(* Inputs are generated once per workload variant and shared by every
   simulation of it, not regenerated per simulation. *)
let test_measure_inputs_once () =
  let module W = Emc_workloads.Workload in
  let m = Measure.create { Scale.tiny with workload_scale = 0.05; jobs = 1 } in
  let gzip = Emc_workloads.Registry.find "gzip" in
  let calls = Hashtbl.create 2 in
  let count variant = Option.value ~default:0 (Hashtbl.find_opt calls variant) in
  let counting ~scale ~variant =
    Hashtbl.replace calls variant (count variant + 1);
    gzip.W.arrays ~scale ~variant
  in
  let w = { gzip with W.arrays = counting } in
  let march i = { Emc_sim.Config.typical with mem_lat = 50 + (10 * i) } in
  for i = 0 to 2 do
    ignore (Measure.cycles m w ~variant:W.Train Emc_opt.Flags.o2 (march i))
  done;
  ignore
    (Measure.cycles_many m w ~variant:W.Train
       (Array.init 4 (fun i -> (Emc_opt.Flags.o2, march (3 + i)))));
  ignore (Measure.cycles m w ~variant:W.Ref Emc_opt.Flags.o2 (march 0));
  ci "simulations" 8 m.Measure.simulations;
  ci "train inputs generated" 1 (count W.Train);
  ci "ref inputs generated" 1 (count W.Ref)

let test_measure_deterministic () =
  let run () =
    let m = small_measure () in
    Measure.cycles m (Emc_workloads.Registry.find "vortex") ~variant:Emc_workloads.Workload.Train
      Emc_opt.Flags.o2 Emc_sim.Config.typical
  in
  Alcotest.(check (float 0.0)) "same cycles across processes' runs" (run ()) (run ())

let test_measure_sensitivity () =
  (* microarchitecture changes must change measured cycles in the right
     direction: slower memory, more cycles (mcf is memory-bound) *)
  let m = small_measure () in
  let w = Emc_workloads.Registry.find "mcf" in
  let fast =
    Measure.cycles m w ~variant:Emc_workloads.Workload.Train Emc_opt.Flags.o2
      { Emc_sim.Config.typical with mem_lat = 50 }
  in
  let slow =
    Measure.cycles m w ~variant:Emc_workloads.Workload.Train Emc_opt.Flags.o2
      { Emc_sim.Config.typical with mem_lat = 150 }
  in
  cb (Printf.sprintf "mem latency matters (%.0f vs %.0f)" fast slow) true
    (slow > fast *. 1.1)

let test_measure_multi_response () =
  let m = small_measure () in
  let w = Emc_workloads.Registry.find "gzip" in
  let variant = Emc_workloads.Workload.Train in
  let cyc = Measure.respond ~response:Measure.Cycles m w ~variant Emc_opt.Flags.o2 Emc_sim.Config.typical in
  let sims = m.Measure.simulations in
  (* the other two responses come from the same (memoized) simulation *)
  let nrg = Measure.respond ~response:Measure.Energy m w ~variant Emc_opt.Flags.o2 Emc_sim.Config.typical in
  let sz = Measure.respond ~response:Measure.CodeSize m w ~variant Emc_opt.Flags.o2 Emc_sim.Config.typical in
  ci "no extra simulations" sims m.Measure.simulations;
  cb "distinct responses" true (cyc <> nrg && nrg <> sz);
  cb "all positive" true (cyc > 0.0 && nrg > 0.0 && sz > 0.0);
  (* code size at O3+unroll exceeds code size at O2 *)
  let sz_unrolled =
    Measure.respond ~response:Measure.CodeSize m w ~variant
      { Emc_opt.Flags.o3 with unroll_loops = true } Emc_sim.Config.typical
  in
  cb "unrolling grows code size response" true (sz_unrolled > sz)

let test_measure_flags_matter () =
  let m = small_measure () in
  let w = Emc_workloads.Registry.find "vortex" in
  let o0 =
    Measure.cycles m w ~variant:Emc_workloads.Workload.Train Emc_opt.Flags.o0
      Emc_sim.Config.typical
  in
  let o2 =
    Measure.cycles m w ~variant:Emc_workloads.Workload.Train Emc_opt.Flags.o2
      Emc_sim.Config.typical
  in
  cb (Printf.sprintf "O2 beats O0 (%.0f vs %.0f)" o2 o0) true (o2 < o0)

(* ---------------- end-to-end mini experiment ---------------- *)

let test_mini_modeling_loop () =
  let scale =
    { Scale.tiny with train_n = 24; test_n = 8; workload_scale = 0.04;
      fig5_sizes = [ 8; 16 ]; fig5_reps = 1 }
  in
  let ctx = Experiments.create ~seed:11 ~scale () in
  let w = Emc_workloads.Registry.find "gzip" in
  let d = Experiments.prepare ctx w in
  ci "train size" 24 (Emc_regress.Dataset.size d.Experiments.train);
  ci "test size" 8 (Emc_regress.Dataset.size d.Experiments.test);
  ci "three models" 3 (List.length d.Experiments.models);
  (* models predict positive cycle counts near the data *)
  List.iter
    (fun (_, (m : Emc_regress.Model.t)) ->
      Array.iter
        (fun x -> cb "prediction positive" true (m.predict x > 0.0))
        d.Experiments.train.Emc_regress.Dataset.x)
    d.Experiments.models;
  (* prepare is cached *)
  let sims = ctx.measure.Measure.simulations in
  let _ = Experiments.prepare ctx w in
  ci "prepare cached" sims ctx.measure.Measure.simulations;
  (* the model-based search returns valid flags and a finite prediction *)
  let r =
    Searcher.search ~params:scale.Scale.ga ~rng:(Emc_util.Rng.create 3)
      ~model:(Experiments.rbf_model d) ~march:Emc_sim.Config.typical ()
  in
  cb "finite prediction" true (Float.is_finite r.Searcher.predicted_cycles);
  cb "prediction positive" true (r.Searcher.predicted_cycles > 0.0)

let test_modeling_iterate () =
  let scale = { Scale.tiny with workload_scale = 0.04 } in
  let measure = Measure.create scale in
  let rng = Emc_util.Rng.create 13 in
  let w = Emc_workloads.Registry.find "vortex" in
  let test_pts = Emc_doe.Doe.lhs rng Params.space_all 8 in
  let test = Modeling.build_dataset measure w ~variant:Emc_workloads.Workload.Train test_pts in
  let _model, trajectory =
    Modeling.iterate ~step:12 ~target_error:8.0 ~max_n:24 ~rng ~measure ~workload:w
      ~variant:Emc_workloads.Workload.Train ~technique:Modeling.Rbf ~test ()
  in
  cb "iterated at least once" true (List.length trajectory >= 1);
  cb "sizes grow by step" true
    (List.for_all (fun (n, _) -> n mod 12 = 0) trajectory)

(* `emc model -w mcf --scale tiny --seed 7 --jobs 1` simulates every
   point, each in one or more SMARTS attempts, on one simulator memory. *)
let test_measure_one_memory () =
  let allocations () =
    Option.value ~default:0 (Emc_obs.Metrics.counter_value "sim.memory_allocations")
  in
  let before = allocations () in
  let ctx = Experiments.create ~seed:7 ~scale:{ Scale.tiny with Scale.jobs = 1 } () in
  ignore (Experiments.prepare ctx (Emc_workloads.Registry.find "mcf"));
  ci "simulations" 48 ctx.measure.Measure.simulations;
  ci "memory allocations" 1 (allocations () - before);
  cb "the measure holds it" true (ctx.measure.Measure.store.Emc_sim.Ooo.memory <> None)

(* The same run restores the memory for every attempt but the first: one
   full load, then only the pages earlier attempts wrote (the count is
   pinned, so a change in what the restore covers shows here). *)
let test_measure_one_machine () =
  let counter name = Option.value ~default:0 (Emc_obs.Metrics.counter_value name) in
  let full0 = counter "sim.memory_full_loads" and pages0 = counter "sim.memory_restored_pages" in
  let ctx = Experiments.create ~seed:7 ~scale:{ Scale.tiny with Scale.jobs = 1 } () in
  ignore (Experiments.prepare ctx (Emc_workloads.Registry.find "mcf"));
  ci "simulations" 48 ctx.measure.Measure.simulations;
  ci "full loads" 1 (counter "sim.memory_full_loads" - full0);
  ci "restored pages" 669 (counter "sim.memory_restored_pages" - pages0)

let suite =
  [
    ("parameter space shape", `Quick, test_space_shape);
    ("code/decode roundtrip", `Quick, test_code_decode_roundtrip_all_levels);
    ("decode snaps to levels", `Quick, test_decode_snaps_to_levels);
    ("flags roundtrip", `Quick, test_flags_roundtrip);
    ("march roundtrip", `Quick, test_march_roundtrip);
    ("table5 configs on grid", `Quick, test_table5_configs_on_grid);
    ("coded levels sorted", `Quick, test_coded_levels_sorted_distinct);
    ("scales", `Quick, test_scales);
    ("measure caches", `Quick, test_measure_caches);
    ("inputs generated once per workload and variant", `Quick, test_measure_inputs_once);
    ("measure deterministic", `Quick, test_measure_deterministic);
    ("measure microarch sensitivity", `Quick, test_measure_sensitivity);
    ("measure flags matter", `Quick, test_measure_flags_matter);
    ("measure multi-response", `Quick, test_measure_multi_response);
    ("mini modeling loop", `Slow, test_mini_modeling_loop);
    ("modeling iterate", `Slow, test_modeling_iterate);
    ("one simulator memory per measure", `Quick, test_measure_one_memory);
    ("one simulator machine per measure", `Quick, test_measure_one_machine);
  ]
