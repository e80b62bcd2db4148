module Table = Analysis.Table
module Series = Analysis.Series

type outcome = {
  lag : float;
  onset : float option;  (* first decrease of the new edge's skew *)
  settle : float option; (* skew <= I/4 *)
  envelope_ok : bool;
  valid : bool;
}

let scenario ~n ~lag =
  let params = Gcs.Params.make ~b0:13.2 ~n () in
  let { Lowerbound.Layered.edges; clocks; delay; t_add } =
    Lowerbound.Layered.closing_path ~n ~rho:params.Gcs.Params.rho
      ~delay_bound:params.Gcs.Params.delay_bound
  in
  let horizon = t_add +. 200. in
  let cfg =
    Gcs.Sim.config ~params ~discovery_lag:lag ~clocks ~delay ~initial_edges:edges ()
  in
  let run =
    Common.launch cfg ~horizon ~sample_every:0.25
      ~watch:[ (0, n - 1) ]
      ~churn:(Topology.Churn.single_new_edge ~at:t_add 0 (n - 1))
  in
  let aged =
    List.map
      (fun (t, s) -> (t -. t_add, s))
      (Series.after t_add (Gcs.Metrics.pair_trace run.Common.recorder (0, n - 1)))
  in
  let initial = match aged with (_, s) :: _ -> s | [] -> 0. in
  let onset =
    List.find_opt (fun (_, s) -> s < initial -. 1.) aged |> Option.map fst
  in
  let settle = Series.first_below (initial /. 4.) aged in
  let envelope_ok =
    List.for_all
      (fun (age, skew) -> skew <= Gcs.Params.dynamic_local_skew params age +. 1e-6)
      aged
  in
  { lag; onset; settle; envelope_ok; valid = Gcs.Invariant.ok run.Common.invariants }

let run ~quick =
  let n = if quick then 32 else 64 in
  let params = Gcs.Params.make ~n () in
  let d = params.Gcs.Params.discovery_bound in
  let lags = [ 0.; 0.5 *. d; d ] in
  let outcomes = List.map (fun lag -> scenario ~n ~lag) lags in
  let table =
    Table.create
      ~title:
        (Printf.sprintf "Discovery lag vs new-edge absorption (path n=%d, D=%.2f)" n d)
      ~columns:[ "lag"; "absorption onset"; "settle (I/4)"; "envelope held"; "valid" ]
  in
  List.iter
    (fun o ->
      let cell = function Some x -> Table.Float x | None -> Table.Str "-" in
      Table.add_row table
        [
          Table.Float o.lag;
          cell o.onset;
          cell o.settle;
          Table.Bool o.envelope_ok;
          Table.Bool o.valid;
        ])
    outcomes;
  let onset_of o = Option.value ~default:infinity o.onset in
  let first = List.hd outcomes and last = List.nth outcomes (List.length outcomes - 1) in
  let checks =
    [
      Common.check ~name:"absorption starts later with larger lag"
        ~pass:(onset_of last >= onset_of first)
        "onset %.2f (lag 0) vs %.2f (lag D)" (onset_of first) (onset_of last);
      Common.check ~name:"onset shift is about the lag"
        ~pass:(onset_of last -. onset_of first <= d +. 2. *. Gcs.Params.delta_t params)
        "shift %.2f vs D + 2dT = %.2f" (onset_of last -. onset_of first)
        (d +. 2. *. Gcs.Params.delta_t params);
      Common.check ~name:"envelope holds at every lag"
        ~pass:(List.for_all (fun o -> o.envelope_ok) outcomes)
        "the worst-case-D envelope covers every actual lag";
      Common.check ~name:"all settle"
        ~pass:(List.for_all (fun o -> o.settle <> None) outcomes)
        "%d runs" (List.length outcomes);
      Common.check ~name:"validity"
        ~pass:(List.for_all (fun o -> o.valid) outcomes)
        "%d runs" (List.length outcomes);
    ]
  in
  {
    Common.id = "A2";
    title = "Ablation: discovery lag (Section 3.2's D)";
    tables = [ table ];
    checks;
  }
