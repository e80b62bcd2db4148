module Table = Analysis.Table
module Series = Analysis.Series

type outcome = {
  n : int;
  b0 : float;
  initial_skew : float;
  settle : float option; (* time from edge add until skew <= I/4 *)
  valid : bool;
}

(* One run of the beta-adversary path scenario with a closing edge. *)
let scenario ~n ~b0 =
  let params = Gcs.Params.make ~b0 ~n () in
  let { Lowerbound.Layered.edges; clocks; delay; t_add } =
    Lowerbound.Layered.closing_path ~n ~rho:params.Gcs.Params.rho
      ~delay_bound:params.Gcs.Params.delay_bound
  in
  let horizon = t_add +. Float.max 400. (float_of_int n *. 4.) in
  let cfg =
    Gcs.Sim.config ~params ~clocks ~delay ~initial_edges:edges ()
  in
  let run =
    Common.launch cfg ~horizon ~sample_every:0.5
      ~watch:[ (0, n - 1) ]
      ~churn:(Topology.Churn.single_new_edge ~at:t_add 0 (n - 1))
  in
  let trace = Gcs.Metrics.pair_trace run.Common.recorder (0, n - 1) in
  let aged = List.map (fun (t, s) -> (t -. t_add, s)) (Series.after t_add trace) in
  let initial_skew = match aged with (_, s) :: _ -> s | [] -> 0. in
  let settle = Series.first_below (initial_skew /. 4.) aged in
  { n; b0; initial_skew; settle; valid = Gcs.Invariant.ok run.Common.invariants }

let run ~quick =
  let n_fixed = if quick then 48 else 96 in
  let b0_base = Gcs.Params.make ~n:n_fixed () in
  let min_b0 = Gcs.Params.min_b0 b0_base in
  let b0_factors = if quick then [ 1.2; 2.5; 5.0 ] else [ 1.2; 2.5; 5.0; 10.0 ] in
  let b0_sweep =
    List.map snd (Runner.sweep (fun f -> scenario ~n:n_fixed ~b0:(f *. min_b0)) b0_factors)
  in
  let ns = if quick then [ 32; 48; 64 ] else [ 32; 64; 96; 128 ] in
  let b0_fixed = 1.5 *. min_b0 in
  let n_sweep = List.map snd (Runner.sweep (fun n -> scenario ~n ~b0:b0_fixed) ns) in
  let table_b0 =
    Table.create
      ~title:(Printf.sprintf "Settle time vs B0 (path + new edge, n=%d)" n_fixed)
      ~columns:[ "B0"; "initial skew"; "settle time"; "settle*B0"; "valid" ]
  in
  List.iter
    (fun o ->
      Table.add_row table_b0
        [
          Table.Float o.b0;
          Table.Float o.initial_skew;
          (match o.settle with Some s -> Table.Float s | None -> Table.Str "none");
          (match o.settle with Some s -> Table.Float (s *. o.b0) | None -> Table.Str "-");
          Table.Bool o.valid;
        ])
    b0_sweep;
  let table_n =
    Table.create
      ~title:(Printf.sprintf "Settle time vs n (path + new edge, B0=%.1f)" b0_fixed)
      ~columns:[ "n"; "initial skew"; "settle time"; "settle/n"; "valid" ]
  in
  List.iter
    (fun o ->
      Table.add_row table_n
        [
          Table.Int o.n;
          Table.Float o.initial_skew;
          (match o.settle with Some s -> Table.Float s | None -> Table.Str "none");
          (match o.settle with
          | Some s -> Table.Float (s /. float_of_int o.n)
          | None -> Table.Str "-");
          Table.Bool o.valid;
        ])
    n_sweep;
  let settled outcomes = List.for_all (fun o -> o.settle <> None) outcomes in
  let settle_of o = Option.value ~default:infinity o.settle in
  let monotone_decreasing =
    let rec go = function
      | a :: (b :: _ as rest) -> settle_of a >= settle_of b -. 1. && go rest
      | _ -> true
    in
    go b0_sweep
  in
  let corr_inv_b0 =
    Analysis.Stats.correlation (List.map (fun o -> (1. /. o.b0, settle_of o)) b0_sweep)
  in
  let corr_n =
    Analysis.Stats.correlation
      (List.map (fun o -> (float_of_int o.n, settle_of o)) n_sweep)
  in
  let checks =
    [
      Common.check ~name:"all runs settle" ~pass:(settled b0_sweep && settled n_sweep)
        "every scenario reduced the new edge's skew below I/4";
      Common.check ~name:"settle time decreases as B0 grows" ~pass:monotone_decreasing
        "settle times along B0 sweep: %s"
        (String.concat ", "
           (List.map (fun o -> Printf.sprintf "%.1f" (settle_of o)) b0_sweep));
      Common.check ~name:"settle time ~ 1/B0" ~pass:(corr_inv_b0 > 0.85)
        "correlation(1/B0, settle) = %.3f" corr_inv_b0;
      Common.check ~name:"settle time grows with n" ~pass:(corr_n > 0.85)
        "correlation(n, settle) = %.3f" corr_n;
      Common.check ~name:"validity in all runs"
        ~pass:(List.for_all (fun o -> o.valid) (b0_sweep @ n_sweep))
        "invariant monitors clean in %d runs"
        (List.length b0_sweep + List.length n_sweep);
    ]
  in
  {
    Common.id = "E3";
    title = "Stabilization-time / stable-skew trade-off (Corollary 6.14)";
    tables = [ table_b0; table_n ];
    checks;
  }
