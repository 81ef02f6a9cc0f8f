let () =
  Alcotest.run "sft"
    [
      ("netlist", Test_netlist.suite);
      Helpers.qsuite "netlist-properties" Test_netlist.qchecks;
      ("logic", Test_logic.suite);
      Helpers.qsuite "logic-properties" Test_logic.qchecks;
      ("wordlevel", Test_wordlevel.suite);
      Helpers.qsuite "wordlevel-properties" Test_wordlevel.qchecks;
      ("sim", Test_sim.suite);
      ("fault", Test_fault.suite);
      ("atpg", Test_atpg.suite);
      ("imply", Test_imply.suite);
      Helpers.qsuite "imply-properties" Test_imply.qchecks;
      ("delay", Test_delay.suite);
      ("comparison", Test_comparison.suite);
      Helpers.qsuite "comparison-properties" Test_comparison.qchecks;
      ("synth", Test_synth.suite);
      Helpers.qsuite "synth-properties" Test_synth.qchecks;
      ("rar", Test_rar.suite);
      ("techmap", Test_techmap.suite);
      ("gen", Test_gen.suite);
      ("report", Test_report.suite);
      Helpers.qsuite "properties" Test_properties.suite;
      ("extensions", Test_extensions.suite);
      ("pdf-atpg", Test_pdf_atpg.suite);
      ("sop", Test_sop.suite);
      ("edge-cases", Test_edge_cases.suite);
      ("benchmarks", Test_benchmarks.suite);
      ("integration", Test_integration.suite);
      ("more", Test_more.suite);
      Helpers.qsuite "extension-properties" Test_extensions.qchecks;
      ("parallel", Test_parallel.suite);
      Helpers.qsuite "parallel-properties" Test_parallel.qchecks;
      ("incremental", Test_incremental.suite);
      Helpers.qsuite "incremental-properties" Test_incremental.qchecks;
      ("obs", Test_obs.suite);
      ("bench-diff", Test_bench_diff.suite);
      ("cec", Test_cec.suite);
      Helpers.qsuite "cec-properties" Test_cec.qchecks;
      ("sat-atpg", Test_sat_atpg.suite);
      Helpers.qsuite "sat-atpg-properties" Test_sat_atpg.qchecks;
      ("idcache", Test_idcache.suite);
      Helpers.qsuite "idcache-properties" Test_idcache.qchecks;
    ]
