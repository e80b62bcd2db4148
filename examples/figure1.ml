(* Figure 1 of the paper, reproduced as a live execution.

   Run with: dune exec examples/figure1.exe

   The two-chain network of Theorem 4.1: w0 and wn joined by chain A
   (with the blocked edges E_block constrained to maximal delay) and
   chain B. The Masking-Lemma adversary runs the real algorithm through
   the indistinguishable executions alpha and beta; in beta the designated
   chain-A nodes u and v end up with Theta(n) skew (Fig. 1a). At T1 the
   adversary inserts the Lemma 4.3 edges along chain B, each carrying
   initial skew ~I (Fig. 1b), and the decay of the worst new edge's skew
   is plotted (Fig. 1c). *)

let () =
  let n = 48 in
  let k = 2 in
  let net = Lowerbound.Twochain.build ~n ~k in
  let params = Gcs.Params.make ~b0:13.2 ~n () in
  let delay_bound = params.Gcs.Params.delay_bound in
  let mask = Lowerbound.Twochain.mask net ~delay:delay_bound in
  let layered =
    Lowerbound.Layered.prepare ~n ~edges:net.Lowerbound.Twochain.edges ~mask
      ~source:(Lowerbound.Twochain.w0 net)
      ~rho:params.Gcs.Params.rho ~delay_bound
  in
  let u = net.Lowerbound.Twochain.u and v = net.Lowerbound.Twochain.v in
  let dist = Lowerbound.Layered.layer layered v - Lowerbound.Layered.layer layered u in
  Format.printf
    "two-chain network: n=%d, k=%d, |A|=%d, |B|=%d, dist_M(u,v)=%d@."
    n k net.Lowerbound.Twochain.a_len net.Lowerbound.Twochain.b_len dist;
  Format.printf "E_block: %d edges constrained to delay T=%g@.@."
    (List.length net.Lowerbound.Twochain.block)
    delay_bound;

  let t1 = Lowerbound.Layered.min_time layered v +. 10. in
  (* Probe run to T1 to read the B-chain clocks for Lemma 4.3. *)
  let run_beta ~horizon ~churn ~watch =
    let cfg =
      Gcs.Sim.config ~params
        ~clocks:(Lowerbound.Layered.beta_clocks layered)
        ~delay:(Lowerbound.Layered.beta_delay_policy layered)
        ~initial_edges:net.Lowerbound.Twochain.edges ()
    in
    let sim = Gcs.Sim.create cfg in
    let recorder =
      Gcs.Metrics.attach (Gcs.Sim.engine sim) (Gcs.Sim.view sim) ~every:1.
        ~until:horizon ~watch ()
    in
    Topology.Churn.schedule (Gcs.Sim.engine sim) churn;
    Gcs.Sim.run_until sim horizon;
    (sim, recorder)
  in
  let probe, _ = run_beta ~horizon:t1 ~churn:[] ~watch:[] in
  let skew_uv =
    Gcs.Metrics.edge_skew (Gcs.Metrics.snapshot (Gcs.Sim.view probe) ~time:t1) u v
  in
  Format.printf "Fig 1(a): at T1=%.0f, skew(u,v) in beta = %.1f (>= T*d/4 = %.1f)@.@."
    t1 skew_uv
    (Lowerbound.Layered.guaranteed_skew layered v);

  let { Lowerbound.Twochain.new_edges; c = i_target; _ } =
    Lowerbound.Twochain.insertion net ~clock:(Gcs.Sim.logical_clock probe)
  in
  Format.printf "Fig 1(b): Lemma 4.3 selects %d new B-chain edges, target I=%.1f:@."
    (List.length new_edges) i_target;
  List.iter (fun (x, y) -> Format.printf "  {%d, %d}@." x y) new_edges;

  let churn =
    List.concat_map
      (fun (x, y) -> Topology.Churn.single_new_edge ~at:t1 x y)
      new_edges
  in
  let horizon = t1 +. 120. in
  let _, recorder = run_beta ~horizon ~churn ~watch:new_edges in
  Format.printf "@.Fig 1(c): worst new-edge skew vs time since T1:@.";
  let worst_edge =
    List.fold_left
      (fun (best_e, best_s) e ->
        let s =
          Analysis.Series.value_at (Gcs.Metrics.pair_trace recorder e) (t1 +. 1.)
          |> Option.value ~default:0.
        in
        if s > best_s then (e, s) else (best_e, best_s))
      (List.hd new_edges, 0.)
      new_edges
    |> fst
  in
  let trace =
    List.map
      (fun (t, s) -> (t -. t1, s))
      (Analysis.Series.after t1 (Gcs.Metrics.pair_trace recorder worst_edge))
  in
  print_string
    (Analysis.Plot.render ~width:64 ~height:12
       [ (Printf.sprintf "skew on {%d,%d}" (fst worst_edge) (snd worst_edge), trace) ]);
  Format.printf "@.(the skew cannot be absorbed faster than Omega(n/B0): Theorem 4.1)@."
