(** Golden cycle-count regressions for the timing model.

    The simulator's optimization contract is {e bit-identical timing}:
    performance work on the scheduling data structures (completion
    calendar, ready set, store index — see DESIGN.md "Simulator
    performance") must never change a simulated cycle. These tests pin
    whole-program cycles, every per-run counter, and the SMARTS estimate
    (cycles and ci_rel compared as [%h] hex-float strings, so the last ulp
    counts) for three workloads at both issue widths (typical = 4-wide,
    constrained = 2-wide) against values recorded on the seed engine.

    A failure here means simulated {e behavior} changed. That is only
    legitimate when the timing {e model} itself changes (a new stage, a
    different latency); in that case regenerate the table with

      dune exec bench/gen_golden.exe > /tmp/golden.ml

    and paste the result over [goldens] below, saying so in the commit. *)

open Emc_sim

type golden = {
  g_workload : string;
  g_cfg : string;
  g_scale : float;
  g_full_cycles : int;
  g_instrs : int;
  g_counters : (string * int) list;
  g_sampled_cycles : string;  (** [%h] of the SMARTS estimate *)
  g_ci_rel : string;  (** [%h] of the achieved relative CI *)
  g_units : int;
  g_detailed : bool;
}

(* recorded on the seed engine; regenerate with bench/gen_golden.exe *)
let goldens =
  [
    { g_workload = "gzip"; g_cfg = "typical"; g_scale = 0x1.999999999999ap-4;
      g_full_cycles = 53968; g_instrs = 49847;
      g_counters =
        [ ("cycles", 53968); ("committed_instrs", 49846); ("detail_instrs", 49847);
          ("issued_instrs", 49846); ("branch_mispredicts", 362); ("fetch_stall_cycles", 38328);
          ("issue_stall_cycles", 33199); ("commit_stall_cycles", 36133); ("l1i_hits", 6089);
          ("l1i_misses", 12); ("l1d_hits", 4321); ("l1d_misses", 401);
          ("l2_hits", 18); ("l2_misses", 395); ];
      g_sampled_cycles = "0x1.9a92968e41133p+15"; g_ci_rel = "0x1.3336435c35154p-4";
      g_units = 16; g_detailed = false };
    { g_workload = "gzip"; g_cfg = "constrained"; g_scale = 0x1.999999999999ap-4;
      g_full_cycles = 56281; g_instrs = 49697;
      g_counters =
        [ ("cycles", 56281); ("committed_instrs", 49696); ("detail_instrs", 49697);
          ("issued_instrs", 49696); ("branch_mispredicts", 483); ("fetch_stall_cycles", 29344);
          ("issue_stall_cycles", 26431); ("commit_stall_cycles", 27552); ("l1i_hits", 6089);
          ("l1i_misses", 12); ("l1d_hits", 4277); ("l1d_misses", 463);
          ("l2_hits", 80); ("l2_misses", 395); ];
      g_sampled_cycles = "0x1.a8b3d604c2468p+15"; g_ci_rel = "0x1.3320386ba6b48p-4";
      g_units = 16; g_detailed = false };
    { g_workload = "mcf"; g_cfg = "typical"; g_scale = 0x1.47ae147ae147bp-4;
      g_full_cycles = 527469; g_instrs = 72195;
      g_counters =
        [ ("cycles", 527469); ("committed_instrs", 72194); ("detail_instrs", 72195);
          ("issued_instrs", 72194); ("branch_mispredicts", 8); ("fetch_stall_cycles", 497277);
          ("issue_stall_cycles", 490936); ("commit_stall_cycles", 502969); ("l1i_hits", 12023);
          ("l1i_misses", 7); ("l1d_hits", 17); ("l1d_misses", 12012);
          ("l2_hits", 3269); ("l2_misses", 8750); ];
      g_sampled_cycles = "0x1.034e253f8f747p+19"; g_ci_rel = "0x1.954d5e69f0a3ap-4";
      g_units = 24; g_detailed = false };
    { g_workload = "mcf"; g_cfg = "constrained"; g_scale = 0x1.47ae147ae147bp-4;
      g_full_cycles = 320285; g_instrs = 72191;
      g_counters =
        [ ("cycles", 320285); ("committed_instrs", 72190); ("detail_instrs", 72191);
          ("issued_instrs", 72190); ("branch_mispredicts", 8); ("fetch_stall_cycles", 284172);
          ("issue_stall_cycles", 271899); ("commit_stall_cycles", 283916); ("l1i_hits", 12023);
          ("l1i_misses", 7); ("l1d_hits", 16); ("l1d_misses", 12013);
          ("l2_hits", 1852); ("l2_misses", 10168); ];
      g_sampled_cycles = "0x1.37c82ca3d70a4p+18"; g_ci_rel = "0x1.39741ab52765cp-5";
      g_units = 24; g_detailed = false };
    { g_workload = "mesa"; g_cfg = "typical"; g_scale = 0x1.999999999999ap-4;
      g_full_cycles = 276072; g_instrs = 338541;
      g_counters =
        [ ("cycles", 276072); ("committed_instrs", 338540); ("detail_instrs", 338541);
          ("issued_instrs", 338540); ("branch_mispredicts", 1773); ("fetch_stall_cycles", 177774);
          ("issue_stall_cycles", 144080); ("commit_stall_cycles", 159966); ("l1i_hits", 23998);
          ("l1i_misses", 17); ("l1d_hits", 95420); ("l1d_misses", 8376);
          ("l2_hits", 6116); ("l2_misses", 2277); ];
      g_sampled_cycles = "0x1.0906091e9b5a2p+18"; g_ci_rel = "0x1.5ff40baa0581ep-6";
      g_units = 112; g_detailed = false };
    { g_workload = "mesa"; g_cfg = "constrained"; g_scale = 0x1.999999999999ap-4;
      g_full_cycles = 315409; g_instrs = 332841;
      g_counters =
        [ ("cycles", 315409); ("committed_instrs", 332840); ("detail_instrs", 332841);
          ("issued_instrs", 332840); ("branch_mispredicts", 1824); ("fetch_stall_cycles", 133046);
          ("issue_stall_cycles", 106767); ("commit_stall_cycles", 120460); ("l1i_hits", 24000);
          ("l1i_misses", 17); ("l1d_hits", 83516); ("l1d_misses", 14580);
          ("l2_hits", 12316); ("l2_misses", 2281); ];
      g_sampled_cycles = "0x1.349e6f924acf3p+18"; g_ci_rel = "0x1.1c261ba4d9516p-6";
      g_units = 55; g_detailed = false };
  ]

let cfg_of = function
  | "typical" -> Config.typical
  | "constrained" -> Config.constrained
  | c -> Alcotest.failf "unknown golden config %S" c

(* Mirrors bench/gen_golden.ml: one full detailed run (cycles +
   counters), then one sampled run on a fresh simulator. The full run
   loads its inputs on a store (a memory and cache arrays), and the
   sampled run is repeated on that store, which restores what the full
   run wrote: the path every Measure takes. It must give the same bits. *)
let check_golden g () =
  let w = Emc_workloads.Registry.find g.g_workload in
  let cfg = cfg_of g.g_cfg in
  let prog =
    Emc_codegen.Compiler.compile_source ~issue_width:cfg.Config.issue_width Emc_opt.Flags.o2
      w.Emc_workloads.Workload.source
  in
  let arrays =
    w.Emc_workloads.Workload.arrays ~scale:g.g_scale ~variant:Emc_workloads.Workload.Train
  in
  let store = Ooo.store () in
  let ooo = Ooo.create ~store ~inputs:arrays cfg prog in
  let cycles = Ooo.run_to_completion ooo in
  Alcotest.(check int) "full-detail cycles" g.g_full_cycles cycles;
  Alcotest.(check int) "dynamic instructions" g.g_instrs (Ooo.func ooo).Func.icount;
  List.iter2
    (fun (k, v) (k', v') ->
      Alcotest.(check string) "counter key order" k k';
      Alcotest.(check int) ("counter " ^ k) v v')
    g.g_counters (Ooo.counters ooo);
  List.iter
    (fun (path, store) ->
      let smp = Smarts.run_sampled ?store cfg prog ~inputs:arrays in
      Alcotest.(check string) (path ^ ": sampled cycles (bit-exact)") g.g_sampled_cycles
        (Printf.sprintf "%h" smp.Smarts.cycles);
      Alcotest.(check string) (path ^ ": ci_rel (bit-exact)") g.g_ci_rel
        (Printf.sprintf "%h" smp.Smarts.ci_rel);
      Alcotest.(check int) (path ^ ": sampled units") g.g_units smp.Smarts.sampled_units;
      Alcotest.(check bool) (path ^ ": sampling engaged") g.g_detailed smp.Smarts.detailed)
    [ ("fresh memory", None); ("reused memory", Some store) ]

let suite =
  List.map
    (fun g ->
      (Printf.sprintf "%s @ %s bit-identical" g.g_workload g.g_cfg, `Quick, check_golden g))
    goldens
