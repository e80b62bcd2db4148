module Table = Analysis.Table
module Series = Analysis.Series

type outcome = {
  algo : Gcs.Sim.algo;
  initial_skew : float;
  peak_old_edge : float;   (* worst skew on pre-existing edges after the add *)
  settle : float option;   (* new edge skew <= stable bound *)
  promise_violation : float; (* time the new edge exceeds the claimed envelope *)
  valid : bool;
}

let b0 = 10.5

let scenario ~n ~algo =
  let params = Common.default_params ~b0 ~n () in
  let edges = Topology.Static.path n in
  let layered =
    Lowerbound.Layered.prepare ~n ~edges ~mask:Lowerbound.Mask.empty ~source:0
      ~rho:params.Gcs.Params.rho ~delay_bound:params.Gcs.Params.delay_bound
  in
  let t_add = Lowerbound.Layered.min_time layered (n - 1) +. 10. in
  let horizon = t_add +. 400. in
  let old_watch = List.init (n - 1) (fun i -> (i, i + 1)) in
  let cfg =
    Gcs.Sim.config ~algo ~params
      ~clocks:(Lowerbound.Layered.beta_clocks layered)
      ~delay:(Lowerbound.Layered.beta_delay_policy layered)
      ~initial_edges:edges ()
  in
  let run =
    Common.launch cfg ~horizon ~sample_every:0.5
      ~watch:((0, n - 1) :: old_watch)
      ~churn:(Topology.Churn.single_new_edge ~at:t_add 0 (n - 1))
  in
  let new_trace =
    List.map
      (fun (t, s) -> (t -. t_add, s))
      (Series.after t_add (Gcs.Metrics.pair_trace run.Common.recorder (0, n - 1)))
  in
  let initial_skew = match new_trace with (_, s) :: _ -> s | [] -> 0. in
  let peak_old_edge =
    List.fold_left
      (fun acc e ->
        Float.max acc
          (Series.max_value
             (Series.after t_add (Gcs.Metrics.pair_trace run.Common.recorder e))))
      0. old_watch
  in
  let stable = Gcs.Params.stable_local_skew params in
  let settle = Series.first_below stable new_trace in
  (* The envelope each algorithm implicitly claims for a Γ-edge of a given
     age: the decaying B for Gradient, the constant B0 for Flat_gradient
     (both plus the 2 rho W estimation slack); Max_only makes no local
     claim, so no violation is counted. A Weighted link's B_e never
     exceeds B (T_e <= T), so the global envelope bounds it too. *)
  let claimed_envelope age =
    let open Gcs.Params in
    match algo with
    | Gcs.Sim.Gradient | Gcs.Sim.Weighted _ -> dynamic_local_skew params age
    | Gcs.Sim.Flat_gradient ->
      (* The static guarantee of [13] that a constant tolerance claims:
         B0 plus the estimate-staleness slack (Lemma 6.6). It only starts
         once the edge can have entered Gamma. *)
      if age <= delta_t params +. params.discovery_bound then infinity
      else params.b0 +. (2. *. params.rho *. tau params)
    | Gcs.Sim.Max_only -> infinity
  in
  let promise_violation =
    let sample_step = 0.5 in
    List.fold_left
      (fun acc (age, skew) ->
        if skew > claimed_envelope age then acc +. sample_step else acc)
      0. new_trace
  in
  {
    algo;
    initial_skew;
    peak_old_edge;
    settle;
    promise_violation;
    valid = Gcs.Invariant.ok run.Common.invariants;
  }

let run ~quick =
  let n = if quick then 64 else 128 in
  let algos = [ Gcs.Sim.Gradient; Gcs.Sim.Flat_gradient; Gcs.Sim.Max_only ] in
  let outcomes = List.map (fun algo -> scenario ~n ~algo) algos in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "New-edge absorption by algorithm (path n=%d + edge between ends)" n)
      ~columns:
        [
          "algorithm"; "initial skew"; "peak old-edge skew"; "settle time";
          "promise violated for"; "valid";
        ]
  in
  List.iter
    (fun o ->
      Table.add_row table
        [
          Table.Str (Gcs.Sim.algo_to_string o.algo);
          Table.Float o.initial_skew;
          Table.Float o.peak_old_edge;
          (match o.settle with Some s -> Table.Float s | None -> Table.Str ">horizon");
          Table.Float o.promise_violation;
          Table.Bool o.valid;
        ])
    outcomes;
  let find algo = List.find (fun o -> o.algo = algo) outcomes in
  let grad = find Gcs.Sim.Gradient in
  let flat = find Gcs.Sim.Flat_gradient in
  let max_only = find Gcs.Sim.Max_only in
  let params = Common.default_params ~b0 ~n () in
  let stable = Gcs.Params.stable_local_skew params in
  let checks =
    [
      Common.check ~name:"gradient keeps old edges below the stable bound"
        ~pass:(grad.peak_old_edge <= stable +. 1e-6)
        "peak %.2f vs bound %.2f" grad.peak_old_edge stable;
      Common.check ~name:"max-only spikes Theta(n) skew onto old edges"
        ~pass:
          (max_only.peak_old_edge >= 0.7 *. max_only.initial_skew
          && max_only.peak_old_edge >= 2. *. grad.peak_old_edge)
        "max-only %.2f vs gradient %.2f (initial %.2f)" max_only.peak_old_edge
        grad.peak_old_edge max_only.initial_skew;
      Common.check ~name:"gradient honors its envelope from edge birth"
        ~pass:(grad.promise_violation = 0.)
        "violated for %.1f time units" grad.promise_violation;
      Common.check ~name:"flat tolerance breaks its promise on the new edge"
        ~pass:(flat.promise_violation > 0.)
        "B0-envelope violated for %.1f time units (decaying B: %.1f)"
        flat.promise_violation grad.promise_violation;
      Common.check ~name:"all runs settle eventually"
        ~pass:(List.for_all (fun o -> o.settle <> None) outcomes)
        "settle times recorded for all three algorithms";
      Common.check ~name:"validity in all runs"
        ~pass:(List.for_all (fun o -> o.valid) outcomes)
        "%d runs" (List.length outcomes);
    ]
  in
  {
    Common.id = "E6";
    title = "Baseline comparison (Section 1 motivating example)";
    tables = [ table ];
    checks;
  }
