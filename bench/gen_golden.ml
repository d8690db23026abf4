(** Golden-value generator for the simulator regression suite.

    Prints the [Test_sim_golden.golden] table — whole-program cycle counts,
    every per-run counter, and the SMARTS estimate — for a fixed grid of
    (workload, machine config) points. The output is OCaml source meant to
    be pasted verbatim into [test/test_sim_golden.ml].

    The timing model's contract is that performance work never changes a
    simulated cycle: these values may only legitimately change when the
    *model* changes (a new stage, a different latency), never when the
    scheduling data structures are optimized. Refresh with:

      dune exec bench/gen_golden.exe > /tmp/golden.ml   # then paste *)

open Emc_workloads

let grid = [ ("gzip", 0.10); ("mcf", 0.08); ("mesa", 0.10) ]

let configs =
  [ ("typical", Emc_sim.Config.typical); ("constrained", Emc_sim.Config.constrained) ]

let () =
  Emc_obs.Log.set_level Emc_obs.Log.Error;
  Printf.printf "let goldens =\n  [\n";
  List.iter
    (fun (wname, scale) ->
      let w = Registry.find wname in
      List.iter
        (fun (cname, cfg) ->
          let prog =
            Emc_codegen.Compiler.compile_source ~issue_width:cfg.Emc_sim.Config.issue_width
              Emc_opt.Flags.o2 w.Workload.source
          in
          let arrays = w.Workload.arrays ~scale ~variant:Workload.Train in
          let ooo = Emc_sim.Ooo.create ~inputs:arrays cfg prog in
          let full_cycles = Emc_sim.Ooo.run_to_completion ooo in
          let instrs = (Emc_sim.Ooo.func ooo).Emc_sim.Func.icount in
          let smp = Emc_sim.Smarts.run_sampled cfg prog ~inputs:arrays in
          Printf.printf "    { g_workload = %S; g_cfg = %S; g_scale = %h;\n" wname cname scale;
          Printf.printf "      g_full_cycles = %d; g_instrs = %d;\n" full_cycles instrs;
          Printf.printf "      g_counters =\n        [ ";
          List.iteri
            (fun i (k, v) ->
              Printf.printf "(%S, %d);%s" k v (if i mod 3 = 2 then "\n          " else " "))
            (Emc_sim.Ooo.counters ooo);
          Printf.printf "];\n";
          Printf.printf "      g_sampled_cycles = %S; g_ci_rel = %S;\n"
            (Printf.sprintf "%h" smp.Emc_sim.Smarts.cycles)
            (Printf.sprintf "%h" smp.Emc_sim.Smarts.ci_rel);
          Printf.printf "      g_units = %d; g_detailed = %b };\n" smp.Emc_sim.Smarts.sampled_units
            smp.Emc_sim.Smarts.detailed)
        configs)
    grid;
  Printf.printf "  ]\n"
