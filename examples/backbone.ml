(* Heterogeneous links: a wired backbone with wireless leaf clusters.

   Run with: dune exec examples/backbone.exe

   Four backbone routers are joined by tight links (delay bound T/20);
   each router serves a cluster of wireless nodes over loose links (bound
   T). Under Gcs.Sim's Weighted algorithm every link gets a tolerance and
   timeout scaled to its own uncertainty (Gcs.Hetero), so the backbone
   promises (and achieves) an order of magnitude tighter synchronization
   than the leaves - the gradient property refined from hop count to link
   quality (Section 7 / [9]). *)

let routers = 4

let leaves_per_router = 5

let n = routers * (1 + leaves_per_router)

let router r = r * (1 + leaves_per_router)

let leaf r j = router r + 1 + j

let () =
  let params = Gcs.Params.make ~delta_h:0.2 ~n () in
  let t = params.Gcs.Params.delay_bound in
  let tight = 0.05 *. t in
  let backbone =
    List.init (routers - 1) (fun r -> (router r, router (r + 1)))
  in
  let access =
    List.concat
      (List.init routers (fun r ->
           List.init leaves_per_router (fun j -> (router r, leaf r j))))
  in
  let link_bound =
    Gcs.Hetero.of_alist ~default:t (List.map (fun e -> (e, tight)) backbone)
  in
  let horizon = 400. in
  let clocks =
    Gcs.Drift.assign params ~horizon ~seed:31 (Gcs.Drift.Alternating 40.)
  in
  let delay = Gcs.Hetero.delay_policy (Dsim.Prng.of_int 3) params ~link_bound in
  let sim =
    Gcs.Sim.create
      (Gcs.Sim.config ~algo:(Gcs.Sim.Weighted link_bound) ~params ~clocks ~delay
         ~initial_edges:(backbone @ access) ())
  in
  let view = Gcs.Sim.view sim in
  let recorder =
    Gcs.Metrics.attach (Gcs.Sim.engine sim) view ~every:0.5 ~until:horizon
      ~watch:(backbone @ access) ()
  in
  Gcs.Sim.run_until sim horizon;

  let steady e =
    Analysis.Series.max_value
      (Analysis.Series.after 150. (Gcs.Metrics.pair_trace recorder e))
  in
  let backbone_skews = List.map steady backbone in
  let access_skews = List.map steady access in
  Format.printf "backbone of %d routers (T_e = %.2f), %d wireless leaves (T_e = %.2f)@.@."
    routers tight (routers * leaves_per_router) t;
  Format.printf "%-22s %-12s %-12s %-12s@." "link class" "mean skew" "max skew" "promise B0_e+2rhoW";
  Format.printf "%-22s %-12.4f %-12.4f %-12.4f@." "backbone (tight)"
    (Analysis.Stats.mean backbone_skews)
    (Analysis.Stats.maximum backbone_skews)
    (Gcs.Hetero.stable_local_skew_e params ~t_e:tight);
  Format.printf "%-22s %-12.4f %-12.4f %-12.4f@." "access (loose)"
    (Analysis.Stats.mean access_skews)
    (Analysis.Stats.maximum access_skews)
    (Gcs.Hetero.stable_local_skew_e params ~t_e:t);
  Format.printf "@.end-to-end global skew: %.4f (bound %.4f)@."
    (Gcs.Metrics.global_skew (Gcs.Metrics.snapshot view ~time:horizon))
    (Gcs.Params.global_skew_bound params);
  Format.printf "@.backbone skew over time:@.%s@."
    (Analysis.Plot.sparkline (Gcs.Metrics.pair_trace recorder (List.hd backbone)));
  Format.printf "access skew over time:@.%s@."
    (Analysis.Plot.sparkline (Gcs.Metrics.pair_trace recorder (List.hd access)))
