module Table = Analysis.Table
module Series = Analysis.Series

(* Build Theta(n) skew on a path with the beta execution of the Masking
   Lemma (empty mask, source 0), then close the cycle with a new edge
   {0, n-1} and watch its skew decay inside the envelope. *)
let run ~quick =
  let n = if quick then 32 else 64 in
  let params = Gcs.Params.make ~b0:13.2 ~n () in
  let { Lowerbound.Layered.edges; clocks; delay; t_add } =
    Lowerbound.Layered.closing_path ~n ~rho:params.Gcs.Params.rho
      ~delay_bound:params.Gcs.Params.delay_bound
  in
  let horizon = t_add +. Float.max 300. (Gcs.Params.stabilize_real params /. 2.) in
  let new_edge = (0, n - 1) in
  let old_edges = [ (0, 1); (n / 2, (n / 2) + 1); (n - 2, n - 1) ] in
  let cfg =
    Gcs.Sim.config ~params ~clocks ~delay ~initial_edges:edges ()
  in
  let run =
    Common.launch cfg ~horizon ~sample_every:0.5
      ~watch:(new_edge :: old_edges)
      ~churn:(Topology.Churn.single_new_edge ~at:t_add 0 (n - 1))
  in
  let trace = Gcs.Metrics.pair_trace run.Common.recorder new_edge in
  let after_add = Series.after t_add trace in
  let aged = List.map (fun (t, skew) -> (t -. t_add, skew)) after_add in
  let initial_skew = match aged with (_, s) :: _ -> s | [] -> 0. in
  let envelope = Gcs.Params.dynamic_local_skew params in
  (* Table: skew vs envelope at a ladder of edge ages. *)
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "New-edge skew vs dynamic local skew envelope s(n, age), n=%d, I=%.1f" n
           initial_skew)
      ~columns:[ "edge age"; "measured skew"; "envelope s(n,age)"; "within" ]
  in
  let ages =
    List.filter
      (fun a -> a <= horizon -. t_add)
      [ 0.; 5.; 10.; 20.; 40.; 80.; 120.; 160.; 200.; 250.; 300. ]
  in
  List.iter
    (fun age ->
      match Series.value_at aged age with
      | Some skew ->
        Table.add_row table
          [
            Table.Float age;
            Table.Float skew;
            Table.Float (envelope age);
            Table.Bool (skew <= envelope age +. 1e-6);
          ]
      | None -> ())
    ages;
  (* Checks. *)
  let violations =
    List.filter (fun (age, skew) -> skew > envelope age +. 1e-6) aged
  in
  let stable = Gcs.Params.stable_local_skew params in
  let final_skew = match List.rev aged with (_, s) :: _ -> s | [] -> infinity in
  let old_edge_peak =
    List.fold_left
      (fun acc e ->
        Float.max acc (Series.max_value (Gcs.Metrics.pair_trace run.Common.recorder e)))
      0. old_edges
  in
  let checks =
    [
      Common.check ~name:"initial skew is Theta(n)"
        ~pass:(initial_skew >= 0.8 *. float_of_int (n - 1) *. params.Gcs.Params.delay_bound)
        "I = %.2f vs (n-1)T = %.2f" initial_skew
        (float_of_int (n - 1) *. params.Gcs.Params.delay_bound);
      Common.check ~name:"skew within envelope at all ages" ~pass:(violations = [])
        "%d envelope violations out of %d samples" (List.length violations)
        (List.length aged);
      Common.check ~name:"new edge converges to stable skew"
        ~pass:(final_skew <= stable +. 1.)
        "final skew %.3f vs stable bound %.3f" final_skew stable;
      Common.check ~name:"old edges stay below stable bound during re-convergence"
        ~pass:(old_edge_peak <= stable +. 1e-6)
        "peak old-edge skew %.3f vs stable bound %.3f" old_edge_peak stable;
      Common.invariants_check run;
    ]
  in
  {
    Common.id = "E2";
    title = "Dynamic local skew envelope (Corollary 6.13)";
    tables = [ table ];
    checks;
  }
