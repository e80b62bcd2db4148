module Table = Analysis.Table
module Hetero = Gcs.Hetero

let tight_fraction = 0.1

let link_classes n =
  (* First half of the path is a tight cluster (a wired backbone), the
     second half loose (radio links). Clustering matters: with alternating
     classes every node would keep a fresh view through its tight link,
     masking the loose links' staleness. *)
  List.init (n - 1) (fun i -> ((i, i + 1), i < (n - 1) / 2))

let run ~quick =
  let n = if quick then 16 else 32 in
  let params = Gcs.Params.make ~delta_h:0.2 ~n () in
  let t = params.Gcs.Params.delay_bound in
  let classes = link_classes n in
  let link_bound =
    Hetero.of_alist ~default:t
      (List.filter_map
         (fun (e, tight) -> if tight then Some (e, tight_fraction *. t) else None)
         classes)
  in
  let horizon = 400. in
  let warmup = 150. in
  let clocks = Gcs.Drift.assign params ~horizon ~seed:9 (Gcs.Drift.Alternating 30.) in
  let edges = Topology.Static.path n in
  let delay = Hetero.delay_policy (Dsim.Prng.of_int 31) params ~link_bound in
  let sim =
    Gcs.Sim.create
      (Gcs.Sim.config ~algo:(Gcs.Sim.Weighted link_bound) ~params ~clocks ~delay
         ~initial_edges:edges ())
  in
  let engine = Gcs.Sim.engine sim in
  let view = Gcs.Sim.view sim in
  let recorder = Gcs.Metrics.recorder engine ~watch:edges in
  let monitor = Gcs.Invariant.checker ~n ~params () in
  Gcs.Metrics.every engine view ~every:0.5 ~until:horizon (fun snap ->
      Gcs.Metrics.record recorder snap;
      Gcs.Invariant.observe monitor snap);
  Gcs.Sim.run_until sim horizon;
  let steady_peak e =
    Analysis.Series.max_value
      (Analysis.Series.after warmup (Gcs.Metrics.pair_trace recorder e))
  in
  let tight_edges = List.filter_map (fun (e, c) -> if c then Some e else None) classes in
  let loose_edges =
    List.filter_map (fun (e, c) -> if not c then Some e else None) classes
  in
  let mean xs = Analysis.Stats.mean xs in
  let tight_skews = List.map steady_peak tight_edges in
  let loose_skews = List.map steady_peak loose_edges in
  let tight_bound = Hetero.stable_local_skew_e params ~t_e:(tight_fraction *. t) in
  let loose_bound = Hetero.stable_local_skew_e params ~t_e:t in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Per-link steady skew under mixed uncertainty (path n=%d, dH=%.1f)" n
           params.Gcs.Params.delta_h)
      ~columns:
        [ "link class"; "T_e"; "mean peak skew"; "max peak skew"; "B0_e"; "stable bound_e" ]
  in
  Table.add_row table
    [
      Table.Str "tight";
      Table.Float (tight_fraction *. t);
      Table.Float (mean tight_skews);
      Table.Float (Analysis.Stats.maximum tight_skews);
      Table.Float (Hetero.b0_e params ~t_e:(tight_fraction *. t));
      Table.Float tight_bound;
    ];
  Table.add_row table
    [
      Table.Str "loose";
      Table.Float t;
      Table.Float (mean loose_skews);
      Table.Float (Analysis.Stats.maximum loose_skews);
      Table.Float (Hetero.b0_e params ~t_e:t);
      Table.Float loose_bound;
    ];
  let checks =
    [
      Common.check ~name:"skew tracks link uncertainty"
        ~pass:(mean loose_skews > 2. *. mean tight_skews)
        "loose mean %.4f vs tight mean %.4f" (mean loose_skews) (mean tight_skews);
      Common.check ~name:"tight links honor their refined bound"
        ~pass:(Analysis.Stats.maximum tight_skews <= tight_bound)
        "max tight skew %.4f vs B0_e + 2rhoW = %.4f"
        (Analysis.Stats.maximum tight_skews)
        tight_bound;
      Common.check ~name:"loose links honor their bound"
        ~pass:(Analysis.Stats.maximum loose_skews <= loose_bound)
        "max loose skew %.4f vs %.4f" (Analysis.Stats.maximum loose_skews) loose_bound;
      Common.check ~name:"refined bound is genuinely tighter"
        ~pass:(tight_bound < 0.8 *. loose_bound)
        "B0_e-based %.3f vs uniform %.3f" tight_bound loose_bound;
      Common.check ~name:"validity" ~pass:(Gcs.Invariant.ok monitor) "%d probes"
        (Gcs.Invariant.probes monitor);
    ]
  in
  {
    Common.id = "A3";
    title = "Extension: heterogeneous link delay bounds (Section 7 / [9])";
    tables = [ table ];
    checks;
  }
