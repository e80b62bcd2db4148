type entry = {
  id : string;
  title : string;
  run : quick:bool -> Common.result;
}

let all =
  [
    { id = "E1"; title = "Global skew bound (Theorem 6.9)"; run = E1_global_skew.run };
    {
      id = "E2";
      title = "Dynamic local skew envelope (Corollary 6.13)";
      run = E2_envelope.run;
    };
    {
      id = "E3";
      title = "Stabilization/skew trade-off (Corollary 6.14)";
      run = E3_tradeoff.run;
    };
    {
      id = "E4";
      title = "Lower bound constructions (Theorem 4.1, Figure 1)";
      run = E4_lowerbound.run;
    };
    {
      id = "E5";
      title = "Stable local skew / gradient property (Theorem 6.12)";
      run = E5_stable_skew.run;
    };
    {
      id = "E6";
      title = "Baseline comparison (Section 1 example)";
      run = E6_baseline.run;
    };
    {
      id = "E7";
      title = "Interval-connectivity requirement (Lemma 6.8)";
      run = E7_churn.run;
    };
    { id = "E8"; title = "Validity and determinism"; run = E8_validity.run };
    {
      id = "A1";
      title = "Ablation: broadcast period dH (message cost vs skew)";
      run = A1_message_cost.run;
    };
    {
      id = "A2";
      title = "Ablation: discovery lag (Section 3.2's D)";
      run = A2_discovery.run;
    };
    {
      id = "A3";
      title = "Extension: heterogeneous link delay bounds (Section 7 / [9])";
      run = A3_hetero.run;
    };
    {
      id = "A4";
      title = "Extension: node joins and leaves (Section 7)";
      run = A4_join_leave.run;
    };
    {
      id = "A5";
      title = "Extension: weighted-graph view / effective diameter (Section 7)";
      run = A5_weights.run;
    };
    {
      id = "A6";
      title = "Robustness: silent message loss (outside the model)";
      run = A6_lossy.run;
    };
    {
      id = "A7";
      title = "Corollary 6.14's optimal B0 = Theta(sqrt(rho n))";
      run = A7_optimal_b0.run;
    };
    {
      id = "A8";
      title = "Self-stabilization: crash, restart and corrupted state";
      run = A8_faults.run;
    };
  ]

let find id =
  let id = String.uppercase_ascii id in
  List.find_opt (fun e -> e.id = id) all
