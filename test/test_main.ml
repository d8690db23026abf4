let () =
  Alcotest.run "emc"
    [
      ("util", Test_util.suite);
      ("linalg", Test_linalg.suite);
      ("lang", Test_lang.suite);
      ("ir", Test_ir.suite);
      ("opt", Test_opt.suite);
      ("codegen", Test_codegen.suite);
      ("sim", Test_sim.suite);
      ("sim-golden", Test_sim_golden.suite);
      ("asm-golden", Test_asm_golden.suite);
      ("isa", Test_isa.suite);
      ("doe", Test_doe.suite);
      ("regress", Test_regress.suite);
      ("repr", Test_repr.suite);
      ("search", Test_search.suite);
      ("serve", Test_serve.suite);
      ("http", Test_http.suite);
      ("loadgen", Test_loadgen.suite);
      ("workloads", Test_workloads.suite);
      ("par", Test_par.suite);
      ("fleet", Test_fleet.suite);
      ("core", Test_core.suite);
      ("obs", Test_obs.suite);
      ("diff", Test_diff.suite);
    ]
