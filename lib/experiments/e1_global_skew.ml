module Table = Analysis.Table

(* Split_extremes puts the fast and slow regions far apart on paths and
   rings; on a row-major grid the id split would put them one hop apart,
   so the grid uses the per-id rate gradient instead. *)
let topologies =
  [
    ("path", Gcs.Drift.Split_extremes, fun n -> Topology.Static.path n);
    ("ring", Gcs.Drift.Split_extremes, fun n -> Topology.Static.ring n);
    ("grid", Gcs.Drift.Gradient_rates, fun n -> Topology.Static.grid ~rows:4 ~cols:(n / 4));
  ]

let sizes ~quick = if quick then [ 8; 16; 32 ] else [ 8; 16; 32; 64 ]

let run_one ~name ~drift ~edges ~n =
  let params = Gcs.Params.make ~n () in
  let horizon = Float.max 200. (8. *. float_of_int n) in
  let clocks = Gcs.Drift.assign params ~horizon ~seed:1 drift in
  let delay = Dsim.Delay.maximal ~bound:params.Gcs.Params.delay_bound in
  let cfg = Gcs.Sim.config ~params ~clocks ~delay ~initial_edges:edges () in
  let run = Common.launch cfg ~horizon in
  let bound = Gcs.Params.global_skew_bound params in
  let max_skew = Gcs.Metrics.max_global_skew run.Common.recorder in
  (name, n, Topology.Static.diameter ~n edges, max_skew, bound, run)

let run ~quick =
  let table =
    Table.create ~title:"Max observed global skew vs bound G(n) (Theorem 6.9)"
      ~columns:[ "topology"; "n"; "diam"; "max skew"; "G(n)"; "ratio"; "valid" ]
  in
  let results =
    List.concat_map
      (fun (name, drift, gen) ->
        List.map (fun n -> run_one ~name ~drift ~edges:(gen n) ~n) (sizes ~quick))
      topologies
  in
  let checks = ref [] in
  let add_check c = checks := c :: !checks in
  List.iter
    (fun (name, n, diam, max_skew, bound, run) ->
      Table.add_row table
        [
          Table.Str name;
          Table.Int n;
          Table.Int diam;
          Table.Float max_skew;
          Table.Float bound;
          Table.Float (max_skew /. bound);
          Table.Bool (Gcs.Invariant.ok run.Common.invariants);
        ];
      add_check
        (Common.check
           ~name:(Printf.sprintf "G(n) respected (%s, n=%d)" name n)
           ~pass:(max_skew <= bound) "max global skew %.3f vs bound %.3f" max_skew bound);
      if not (Gcs.Invariant.ok run.Common.invariants) then
        add_check (Common.invariants_check run))
    results;
  (* Shape: for each topology the measured skew grows with n. *)
  List.iter
    (fun (name, _, _) ->
      let points =
        List.filter_map
          (fun (name', n, _, skew, _, _) ->
            if name' = name then Some (float_of_int n, skew) else None)
          results
      in
      let corr = Analysis.Stats.correlation points in
      add_check
        (Common.check
           ~name:(Printf.sprintf "skew grows with n (%s)" name)
           ~pass:(corr > 0.8) "correlation(n, max skew) = %.3f" corr))
    topologies;
  {
    Common.id = "E1";
    title = "Global skew bound (Theorem 6.9)";
    tables = [ table ];
    checks = List.rev !checks;
  }
