let () =
  Alcotest.run "beltway"
    [
      ("util", Test_util.suite);
      ("heap", Test_heap.suite);
      ("config", Test_config.suite);
      ("policy", Test_policy.suite);
      ("strategy", Test_strategy.suite);
      ("core", Test_core.suite);
      ("free list", Test_free_list.suite);
      ("frame table", Test_frame_table.suite);
      ("schedule", Test_schedule.suite);
      ("gc", Test_gc.suite);
      ("driver", Test_driver.suite);
      ("fast path", Test_fastpath.suite);
      ("los", Test_los.suite);
      ("cards", Test_cards.suite);
      ("trace", Test_trace.suite);
      ("workload", Test_workload.suite);
      ("torture", Test_torture.suite);
      ("check", Test_check.suite);
      ("beltlang", Test_beltlang.suite);
      ("bytecode", Test_bytecode.suite);
      ("sim", Test_sim.suite);
      ("obs", Test_obs.suite);
      ("profiler", Test_profiler.suite);
    ]
