module Table = Analysis.Table

let run ~quick =
  let n = if quick then 24 else 48 in
  let params = Gcs.Params.make ~n () in
  let edges = Topology.Static.path n in
  let t_add = 100. in
  let anneal = Gcs.Params.stabilize_real params in
  let horizon = t_add +. anneal +. 100. in
  let clocks = Gcs.Drift.assign params ~horizon ~seed:6 (Gcs.Drift.Random_walk 25.) in
  let delay =
    Dsim.Delay.uniform (Dsim.Prng.of_int 17) ~bound:params.Gcs.Params.delay_bound
  in
  let cfg = Gcs.Sim.config ~params ~clocks ~delay ~initial_edges:edges () in
  let sim = Gcs.Sim.create cfg in
  let engine = Gcs.Sim.engine sim in
  Gcs.Sim.add_edge_at sim ~at:t_add 0 (n - 1);
  (* Sample the effective (weighted) diameter every 2.0 from t = 5. The
     weights are read from the live graph and nodes, not the snapshot. *)
  let samples = ref [] in
  let nodes = Array.init n (fun i -> Option.get (Gcs.Sim.gradient_node sim i)) in
  Gcs.Sim.run_until sim 5.;
  Gcs.Metrics.every engine (Gcs.Sim.view sim) ~every:2. ~until:horizon (fun _ ->
      let current = Dsim.Dyngraph.edges (Dsim.Engine.graph engine) in
      let weighted = Gcs.Weights.weighted_edges nodes current in
      samples :=
        (Dsim.Engine.now engine, Gcs.Weights.effective_diameter ~n weighted) :: !samples);
  Gcs.Sim.run_until sim horizon;
  let series = List.rev !samples in
  let value_at t = Option.value ~default:nan (Analysis.Series.value_at series t) in
  let before = value_at (t_add -. 5.) in
  let just_after = value_at (t_add +. 10.) in
  let final = value_at horizon in
  let annealed_target =
    (* On the closed cycle the weighted diameter converges to B0 times the
       cycle's hop diameter. *)
    Gcs.Weights.hop_diameter_weight params (n / 2)
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Effective (weighted) diameter around a shortcut at t=%.0f (path n=%d)" t_add n)
      ~columns:[ "time"; "effective diameter"; "note" ]
  in
  List.iter
    (fun (t, note) ->
      Table.add_row table [ Table.Float t; Table.Float (value_at t); Table.Str note ])
    [
      (t_add -. 5., "before the shortcut");
      (t_add +. 10., "just after (shortcut still heavy)");
      (t_add +. (anneal /. 2.), "annealing");
      (t_add +. anneal, "anneal horizon");
      (horizon, "final");
    ];
  let after_add = Analysis.Series.after t_add series in
  (* The anneal is over once B has decayed to B0 (subjective stabilization
     time); past it the diameter is flat, so measure the trend inside the
     annealing window only. *)
  let anneal_window =
    Analysis.Series.between t_add
      (t_add +. Gcs.Params.stabilize_subjective params +. 10.)
      series
  in
  let decreasing_corr = Analysis.Stats.correlation anneal_window in
  (* With the shortcut at birth weight B(0), the worst pair sits where
     path distance and shortcut route balance:
     diameter ~ (B(0) + (n-1) B0)/2, capped by the old path weight. *)
  let predicted_just_after =
    Float.min before ((Gcs.Params.b params 0. +. (float_of_int (n - 1) *. params.Gcs.Params.b0)) /. 2.)
  in
  let checks =
    [
      Common.check ~name:"birth weight prevents a full collapse"
        ~pass:(just_after > 1.05 *. final)
        "just after %.1f vs annealed %.1f" just_after final;
      Common.check ~name:"partial drop matches the B(0) tent prediction"
        ~pass:(Float.abs (just_after -. predicted_just_after) < 0.25 *. predicted_just_after)
        "measured %.1f vs predicted %.1f" just_after predicted_just_after;
      Common.check ~name:"effective diameter anneals downward"
        ~pass:(decreasing_corr < -0.8)
        "correlation(t, diameter) after the add = %.3f" decreasing_corr;
      Common.check ~name:"anneals toward B0 x cycle diameter"
        ~pass:(final < 1.25 *. annealed_target && final < 0.75 *. before)
        "final %.1f vs target %.1f (was %.1f)" final annealed_target before;
      Common.check ~name:"weighted never below annealed floor"
        ~pass:(List.for_all (fun (_, d) -> d >= 0.9 *. annealed_target) after_add)
        "B0 floors every weight";
    ]
  in
  {
    Common.id = "A5";
    title = "Extension: weighted-graph view / effective diameter (Section 7)";
    tables = [ table ];
    checks;
  }
