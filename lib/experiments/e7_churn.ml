module Table = Analysis.Table

let run ~quick =
  let n = if quick then 24 else 32 in
  let horizon = if quick then 600. else 1200. in
  let params = Gcs.Params.make ~n () in
  let base = Topology.Static.ring n in
  (* Chords give the churn generator non-tree edges to play with. *)
  let chords =
    List.init (n / 8) (fun i -> Dsim.Dyngraph.normalize (4 * i) (((4 * i) + (n / 2)) mod n))
    |> List.sort_uniq compare
  in
  let edges = List.sort_uniq compare (base @ chords) in
  let prng = Dsim.Prng.of_int 99 in
  let churn_events =
    Topology.Churn.random_churn prng ~n ~base:edges ~rate:0.5 ~horizon
  in
  let flap_events =
    Topology.Churn.flapping ~extra:(Topology.Static.non_tree_edges ~n edges)
      ~period:40. ~up_for:25. ~horizon
  in
  let window = params.Gcs.Params.delay_bound +. params.Gcs.Params.discovery_bound in
  let connected_ok =
    Topology.Connectivity.interval_connected ~n ~window ~horizon ~initial:edges
      (Topology.Churn.normalize (churn_events @ flap_events))
  in
  let run_with events ~clocks_seed =
    let clocks =
      Gcs.Drift.assign params ~horizon ~seed:clocks_seed Gcs.Drift.Split_extremes
    in
    let delay = Dsim.Delay.maximal ~bound:params.Gcs.Params.delay_bound in
    let cfg = Gcs.Sim.config ~params ~clocks ~delay ~initial_edges:edges () in
    Common.launch cfg ~horizon ~churn:events
  in
  let churny = run_with (Topology.Churn.normalize (churn_events @ flap_events)) ~clocks_seed:3 in
  (* Partition schedule: remove a full cut around the ring for a long
     stretch, aligned with the fast/slow drift boundary so the two sides'
     max estimates drift apart at the full 2 rho - long enough to push the
     global skew past G(n), demonstrating that Theorem 6.9 really needs
     the (T+D)-interval connectivity premise. *)
  let cut =
    [ ((n / 2) - 1, n / 2); (0, n - 1) ] @ chords
    |> List.map (fun (u, v) -> Dsim.Dyngraph.normalize u v)
    |> List.sort_uniq compare
  in
  let down_for = horizon /. 2.5 in
  let partition_events =
    Topology.Churn.periodic_partition ~cut ~first_cut_at:(horizon /. 6.) ~down_for
      ~every:(horizon /. 2.) ~horizon
  in
  let partition_violates =
    not
      (Topology.Connectivity.interval_connected ~n ~window ~horizon ~initial:edges
         partition_events)
  in
  let partitioned = run_with partition_events ~clocks_seed:3 in
  let bound = Gcs.Params.global_skew_bound params in
  let skew_churny = Gcs.Metrics.max_global_skew churny.Common.recorder in
  let skew_partitioned = Gcs.Metrics.max_global_skew partitioned.Common.recorder in
  let drift_accumulation = 2. *. params.Gcs.Params.rho *. down_for in
  let table =
    Table.create ~title:(Printf.sprintf "Global skew under churn (ring+chords, n=%d)" n)
      ~columns:
        [ "schedule"; "interval connected"; "max global skew"; "G(n)"; "valid" ]
  in
  Table.add_row table
    [
      Table.Str "backbone-preserving churn";
      Table.Bool connected_ok;
      Table.Float skew_churny;
      Table.Float bound;
      Table.Bool (Gcs.Invariant.ok churny.Common.invariants);
    ];
  Table.add_row table
    [
      Table.Str (Printf.sprintf "partitioned (down %.0f)" down_for);
      Table.Bool (not partition_violates);
      Table.Float skew_partitioned;
      Table.Float bound;
      Table.Bool (Gcs.Invariant.ok partitioned.Common.invariants);
    ];
  let checks =
    [
      Common.check ~name:"churn schedule is interval connected" ~pass:connected_ok
        "window %.2f over horizon %.0f" window horizon;
      Common.check ~name:"partition schedule violates interval connectivity"
        ~pass:partition_violates "cut of %d edges down for %.0f" (List.length cut)
        down_for;
      Common.check ~name:"G(n) holds under connected churn"
        ~pass:(skew_churny <= bound) "%.2f vs %.2f" skew_churny bound;
      Common.check ~name:"partitions inflate global skew"
        ~pass:(skew_partitioned >= 2. *. skew_churny)
        "partitioned %.2f vs churny %.2f (drift accumulation 2*rho*down = %.1f)"
        skew_partitioned skew_churny drift_accumulation;
      Common.check ~name:"long partitions break the G(n) bound"
        ~pass:(skew_partitioned > 0.8 *. Float.min bound drift_accumulation)
        "partitioned %.2f vs G(n) = %.2f" skew_partitioned bound;
      Common.check ~name:"validity under churn"
        ~pass:
          (Gcs.Invariant.ok churny.Common.invariants
          && Gcs.Invariant.ok partitioned.Common.invariants)
        "both monitors clean";
    ]
  in
  {
    Common.id = "E7";
    title = "Interval-connectivity requirement (Lemma 6.8)";
    tables = [ table ];
    checks;
  }
