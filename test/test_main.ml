(* Entry point: every module's suite, plus the quick-mode experiment
   battery as an integration test. *)

let () =
  Alcotest.run "gradient_clock_sync"
    [
      ("prng", Test_prng.suite);
      ("runner", Test_runner.suite);
      ("equeue", Test_equeue.suite);
      ("timewheel", Test_timewheel.suite);
      ("hwclock", Test_hwclock.suite);
      ("delay", Test_delay.suite);
      ("dyngraph", Test_dyngraph.suite);
      ("trace", Test_trace.suite);
      ("engine", Test_engine.suite);
      ("mcheck", Test_mcheck.suite);
      ("params", Test_params.suite);
      ("node", Test_node.suite);
      ("baseline", Test_baseline.suite);
      ("estimate", Test_baseline.estimate_suite);
      ("metrics", Test_metrics.suite);
      ("probe", Test_probe.suite);
      ("invariant", Test_invariant.suite);
      ("sim", Test_sim.suite);
      ("hetero", Test_hetero.suite);
      ("drift", Test_drift.suite);
      ("topology-static", Test_static.suite);
      ("topology-churn", Test_churn.suite);
      ("topology-connectivity", Test_connectivity.suite);
      ("lowerbound-mask", Test_mask.suite);
      ("lowerbound-subseq", Test_subseq.suite);
      ("lowerbound-layered", Test_layered.suite);
      ("lowerbound-twochain", Test_twochain.suite);
      ("analysis-stats", Test_stats.suite);
      ("analysis-series", Test_series.suite);
      ("analysis-table", Test_table.suite);
      ("analysis-plot", Test_plot.suite);
      ("weights", Test_weights.suite);
      ("random-scenarios", Test_random_scenarios.suite);
      ("audit", Test_audit.suite);
      ("fuzz", Test_fuzz.suite);
      ("scheduler-parity", Test_parity.suite);
      ("scaling", Test_scaling.suite);
      ("golden", Test_golden.suite);
      ("experiments", Test_experiments.suite);
    ]
