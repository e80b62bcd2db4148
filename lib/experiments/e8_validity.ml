module Table = Analysis.Table

type scenario = {
  label : string;
  algo : Gcs.Sim.algo;
  topo : (int * int) list;
  n : int;
  drift : Gcs.Drift.spec;
  delay : [ `Maximal | `Uniform | `Zero | `Lossy ];
  churn : bool;
}

let scenarios ~quick =
  let n = if quick then 12 else 20 in
  [
    {
      label = "gradient/path/split/maximal";
      algo = Gcs.Sim.Gradient;
      topo = Topology.Static.path n;
      n;
      drift = Gcs.Drift.Split_extremes;
      delay = `Maximal;
      churn = false;
    };
    {
      label = "gradient/ring/alternating/uniform+churn";
      algo = Gcs.Sim.Gradient;
      topo = Topology.Static.ring n;
      n;
      drift = Gcs.Drift.Alternating 15.;
      delay = `Uniform;
      churn = true;
    };
    {
      label = "gradient/star/random/zero";
      algo = Gcs.Sim.Gradient;
      topo = Topology.Static.star n;
      n;
      drift = Gcs.Drift.Random_walk 10.;
      delay = `Zero;
      churn = false;
    };
    {
      label = "flat/grid/random/uniform";
      algo = Gcs.Sim.Flat_gradient;
      topo = Topology.Static.grid ~rows:4 ~cols:(n / 4);
      n;
      drift = Gcs.Drift.Random_walk 10.;
      delay = `Uniform;
      churn = false;
    };
    {
      label = "max-only/tree/gradient-rates/maximal+churn";
      algo = Gcs.Sim.Max_only;
      topo = Topology.Static.binary_tree n;
      n;
      drift = Gcs.Drift.Gradient_rates;
      delay = `Maximal;
      churn = true;
    };
    {
      label = "gradient/ring/split/lossy+churn";
      algo = Gcs.Sim.Gradient;
      topo = Topology.Static.ring n;
      n;
      drift = Gcs.Drift.Split_extremes;
      delay = `Lossy;
      churn = true;
    };
  ]

let run_scenario ?(seed = 11) s =
  let horizon = 250. in
  let params = Gcs.Params.make ~n:s.n () in
  let clocks = Gcs.Drift.assign params ~horizon ~seed s.drift in
  let bound = params.Gcs.Params.delay_bound in
  let delay =
    match s.delay with
    | `Maximal -> Dsim.Delay.maximal ~bound
    | `Zero -> Dsim.Delay.zero ~bound
    | `Uniform -> Dsim.Delay.uniform (Dsim.Prng.of_int (seed + 1)) ~bound
    | `Lossy ->
      Dsim.Delay.lossy
        (Dsim.Prng.of_int (seed + 4))
        ~rate:0.3
        (Dsim.Delay.uniform (Dsim.Prng.of_int (seed + 1)) ~bound)
  in
  let churn =
    if not s.churn then []
    else
      Topology.Churn.random_churn
        (Dsim.Prng.of_int (seed + 2))
        ~n:s.n ~base:s.topo ~rate:0.2 ~horizon
  in
  let cfg = Gcs.Sim.config ~algo:s.algo ~params ~clocks ~delay ~initial_edges:s.topo () in
  Common.launch cfg ~horizon ~churn

let fingerprint run =
  List.map
    (fun s ->
      ( s.Gcs.Metrics.time,
        s.Gcs.Metrics.global_skew,
        s.Gcs.Metrics.local_skew,
        s.Gcs.Metrics.lmax_lag ))
    (Gcs.Metrics.samples run.Common.recorder)

let run ~quick =
  let table =
    Table.create ~title:"Validity battery (rate >= 1/2, monotone, L <= Lmax)"
      ~columns:[ "scenario"; "probes"; "violations"; "max global skew"; "G(n)" ]
  in
  let checks = ref [] in
  let add c = checks := c :: !checks in
  List.iter
    (fun s ->
      let run = run_scenario s in
      let violations = Gcs.Invariant.violations run.Common.invariants in
      let params = Gcs.Sim.params run.Common.sim in
      Table.add_row table
        [
          Table.Str s.label;
          Table.Int (Gcs.Invariant.probes run.Common.invariants);
          Table.Int (List.length violations);
          Table.Float (Gcs.Metrics.max_global_skew run.Common.recorder);
          Table.Float (Gcs.Params.global_skew_bound params);
        ];
      add
        (Common.check
           ~name:(Printf.sprintf "validity (%s)" s.label)
           ~pass:(violations = []) "%d violations" (List.length violations)))
    (scenarios ~quick);
  (* Determinism: identical seeds reproduce the exact metric trace. *)
  let s = List.hd (scenarios ~quick) in
  let a = fingerprint (run_scenario ~seed:17 s) in
  let b = fingerprint (run_scenario ~seed:17 s) in
  let c = fingerprint (run_scenario ~seed:18 { s with drift = Gcs.Drift.Random_walk 8. }) in
  add
    (Common.check ~name:"determinism: same seed, same trace" ~pass:(a = b)
       "%d samples compared" (List.length a));
  add
    (Common.check ~name:"different seed changes the trace (sanity)" ~pass:(a <> c)
       "traces differ as expected");
  {
    Common.id = "E8";
    title = "Logical-clock validity and determinism";
    tables = [ table ];
    checks = List.rev !checks;
  }
