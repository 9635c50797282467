let () =
  Alcotest.run "hhvm_jit"
    [
      Test_runtime.suite;
      Test_ops.suite;
      Test_frontend.suite;
      Test_interp.suite;
      Test_hhbbc.suite;
      Test_jit.suite;
      Test_region.suite;
      Test_backend.suite;
      Test_differential.suite;
      Test_edge.suite;
      Test_obs.suite;
      Test_parallel.suite;
      Test_spans.suite;
      Test_threaded.suite;
      Test_jumpstart.suite;
      Test_paper.suite;
    ]
