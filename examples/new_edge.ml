(* The Section 1 story, end to end: a new edge closes a long path and its
   Theta(n) skew is absorbed at the rate the theory predicts.

   Run with: dune exec examples/new_edge.exe

   Output: a skew-vs-age series for the new edge next to the paper's
   envelope s(n, age) (Corollary 6.13), plus the worst skew any OLD edge
   suffered while the network reconverged (Theorem 6.12's promise). *)

let n = 48

let () =
  let params = Gcs.Params.make ~b0:13.2 ~n () in
  let { Lowerbound.Layered.edges; clocks; delay; t_add } =
    Lowerbound.Layered.closing_path ~n ~rho:params.Gcs.Params.rho
      ~delay_bound:params.Gcs.Params.delay_bound
  in
  let horizon = t_add +. 250. in
  let cfg =
    Gcs.Sim.config ~params ~clocks ~delay ~initial_edges:edges ()
  in
  let sim = Gcs.Sim.create cfg in
  let recorder =
    Gcs.Metrics.attach (Gcs.Sim.engine sim) (Gcs.Sim.view sim) ~every:0.5
      ~until:horizon
      ~watch:((0, n - 1) :: edges)
      ()
  in
  Gcs.Sim.add_edge_at sim ~at:t_add 0 (n - 1);
  Gcs.Sim.run_until sim horizon;

  let aged =
    List.map
      (fun (t, s) -> (t -. t_add, s))
      (Analysis.Series.after t_add (Gcs.Metrics.pair_trace recorder (0, n - 1)))
  in
  Format.printf
    "new edge {0,%d} appears at t=%.0f carrying the adversary's skew@.@." (n - 1) t_add;
  Format.printf "%8s  %14s  %18s@." "edge age" "measured skew" "envelope s(n,age)";
  List.iter
    (fun age ->
      match Analysis.Series.value_at aged age with
      | Some skew ->
        Format.printf "%8.1f  %14.3f  %18.3f@." age skew
          (Gcs.Params.dynamic_local_skew params age)
      | None -> ())
    [ 0.; 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 250. ];

  let old_peak =
    List.fold_left
      (fun acc e ->
        Float.max acc
          (Analysis.Series.max_value
             (Analysis.Series.after t_add (Gcs.Metrics.pair_trace recorder e))))
      0. edges
  in
  Format.printf "@.worst old-edge skew during reconvergence: %.3f (stable bound %.3f)@."
    old_peak
    (Gcs.Params.stable_local_skew params);
  match
    Analysis.Series.first_below (Gcs.Params.stable_local_skew params) aged
  with
  | Some t -> Format.printf "new edge within the stable bound after %.1f time units@." t
  | None -> Format.printf "new edge still above the stable bound at the horizon@."
