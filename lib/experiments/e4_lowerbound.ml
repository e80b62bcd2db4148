module Table = Analysis.Table
module Series = Analysis.Series
module Layered = Lowerbound.Layered
module Twochain = Lowerbound.Twochain

let run ~quick =
  let n = if quick then 64 else 96 in
  let k = Stdlib.max 1 (n / 24) in
  let net = Twochain.build ~n ~k in
  let params = Common.default_params ~b0:13.2 ~n () in
  let delay_bound = params.Gcs.Params.delay_bound in
  let mask = Twochain.mask net ~delay:delay_bound in
  let layered =
    Layered.prepare ~n ~edges:net.Twochain.edges ~mask ~source:(Twochain.w0 net)
      ~rho:params.Gcs.Params.rho ~delay_bound
  in
  let u = net.Twochain.u and v = net.Twochain.v in
  let dist_uv = Layered.layer layered v - Layered.layer layered u in
  let t1 = Layered.min_time layered v +. 10. in
  let t2 = t1 +. (float_of_int k *. delay_bound /. (1. +. params.Gcs.Params.rho)) in
  let run_execution clocks delay ~watch ~churn ~horizon =
    let cfg =
      Gcs.Sim.config ~params ~clocks ~delay ~initial_edges:net.Twochain.edges ()
    in
    Common.launch cfg ~horizon ~sample_every:1.0 ~watch ~churn
  in
  (* Part A: skew between u and v at t2 in alpha and beta. *)
  let alpha =
    run_execution (Layered.alpha_clocks layered) (Layered.alpha_delay_policy layered)
      ~watch:[ (u, v) ] ~churn:[] ~horizon:t2
  in
  let skew_alpha =
    Gcs.Metrics.edge_skew (Gcs.Metrics.snapshot (Gcs.Sim.view alpha.Common.sim) ~time:t2) u v
  in
  (* Part B continues the beta execution past t1 with the new edges, so we
     build it in two stages: first run beta to t1 to read the B-chain
     clocks, pick the Lemma 4.3 nodes, then re-run with the insertion
     schedule (the execution is deterministic, so the prefix is identical). *)
  let beta_probe =
    run_execution (Layered.beta_clocks layered) (Layered.beta_delay_policy layered)
      ~watch:[ (u, v) ] ~churn:[] ~horizon:t1
  in
  let b_ids = Array.of_list (Twochain.b_chain net) in
  let b_clocks =
    Array.map (fun id -> Gcs.Sim.logical_clock beta_probe.Common.sim id) b_ids
  in
  let adjacent_gap =
    let gaps =
      List.init (Array.length b_clocks - 1) (fun i ->
          Float.abs (b_clocks.(i) -. b_clocks.(i + 1)))
    in
    List.fold_left Float.max 0. gaps
  in
  let d = adjacent_gap +. 0.5 in
  let span = b_clocks.(Array.length b_clocks - 1) -. b_clocks.(0) in
  let i_target = Float.max (2. *. d) (span /. 2.) in
  let selected = Lowerbound.Subseq.extract ~values:b_clocks ~c:i_target ~d in
  let new_edges =
    let rec pairs = function
      | a :: (b :: _ as rest) -> (b_ids.(a), b_ids.(b)) :: pairs rest
      | _ -> []
    in
    pairs selected
  in
  let churn =
    List.concat_map (fun (x, y) -> Topology.Churn.single_new_edge ~at:t1 x y) new_edges
  in
  let horizon = t2 +. Float.max 400. (float_of_int n *. 4.) in
  let beta =
    run_execution (Layered.beta_clocks layered) (Layered.beta_delay_policy layered)
      ~watch:((u, v) :: new_edges) ~churn ~horizon
  in
  let view_t2 skew_pair =
    (* edge skews recorded at sample times; read the trace at t2 *)
    Series.value_at (Gcs.Metrics.pair_trace beta.Common.recorder skew_pair) t2
    |> Option.value ~default:0.
  in
  let skew_beta = view_t2 (u, v) in
  let guaranteed = delay_bound *. float_of_int dist_uv /. 4. in
  let best = Float.max skew_alpha skew_beta in
  (* Part A table. *)
  let table_a =
    Table.create
      ~title:
        (Printf.sprintf
           "Masking Lemma on the two-chain network (n=%d, k=%d, dist_M(u,v)=%d)" n k
           dist_uv)
      ~columns:[ "execution"; "skew(u,v) at T2"; "guaranteed T*d/4" ]
  in
  Table.add_row table_a
    [ Table.Str "alpha"; Table.Float skew_alpha; Table.Float guaranteed ];
  Table.add_row table_a
    [ Table.Str "beta"; Table.Float skew_beta; Table.Float guaranteed ];
  (* Part B: settle times of the new edges. *)
  let table_b =
    Table.create
      ~title:
        (Printf.sprintf
           "New B-chain edges (Lemma 4.3): initial skew and time to halve (I~%.1f)"
           i_target)
      ~columns:[ "edge"; "initial skew"; "time to skew<=I/2"; "pred (I/B0)*dT" ]
  in
  let b0 = params.Gcs.Params.b0 in
  let pred i = i /. b0 *. Gcs.Params.delta_t params in
  let settles =
    List.map
      (fun (x, y) ->
        let trace = Gcs.Metrics.pair_trace beta.Common.recorder (x, y) in
        let aged = List.map (fun (t, s) -> (t -. t1, s)) (Series.after t1 trace) in
        let initial = match aged with (_, s) :: _ -> s | [] -> 0. in
        let settle = Series.first_below (Float.max (initial /. 2.) 1e-9) aged in
        Table.add_row table_b
          [
            Table.Str (Printf.sprintf "{%d,%d}" x y);
            Table.Float initial;
            (match settle with Some s -> Table.Float s | None -> Table.Str ">horizon");
            Table.Float (pred initial);
          ];
        (initial, settle))
      new_edges
  in
  let max_settle =
    List.fold_left
      (fun acc (_, s) -> Float.max acc (Option.value ~default:0. s))
      0. settles
  in
  let slowest_pred =
    List.fold_left (fun acc (i, _) -> Float.max acc (pred i)) 0. settles
  in
  let checks =
    [
      Common.check ~name:"Lemma 4.2: skew >= T*dist/4 in alpha or beta"
        ~pass:(best >= guaranteed -. 1e-6)
        "max(%.2f, %.2f) vs %.2f" skew_alpha skew_beta guaranteed;
      Common.check ~name:"new edges found"
        ~pass:(List.length new_edges >= 1)
        "%d Lemma-4.3 edges with gaps in [%.1f, %.1f]" (List.length new_edges)
        (i_target -. d) i_target;
      Common.check ~name:"Lemma 4.3 gap property"
        ~pass:(Lowerbound.Subseq.check_gaps ~values:b_clocks ~c:i_target ~d selected)
        "selected %d nodes along the B chain" (List.length selected);
      Common.check ~name:"reduction is not instantaneous (lower-bound shape)"
        ~pass:(max_settle >= 0.2 *. slowest_pred)
        "slowest settle %.1f vs wave prediction %.1f" max_settle slowest_pred;
      Common.invariants_check beta;
    ]
  in
  {
    Common.id = "E4";
    title = "Lower bound constructions (Lemma 4.2, Lemma 4.3, Theorem 4.1)";
    tables = [ table_a; table_b ];
    checks;
  }
