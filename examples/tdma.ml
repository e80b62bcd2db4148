(* TDMA slot coordination - the paper's motivating application (Section 1).

   Run with: dune exec examples/tdma.exe

   Nodes share a wireless medium and avoid interference by transmitting in
   time slots derived from their LOGICAL clocks. Two interfering nodes
   collide when their logical clocks disagree about the current slot, so a
   TDMA schedule is safe on a link exactly when the skew across it stays
   below half a slot. The gradient algorithm's stable bound B0 + 2 rho W
   tells the operator how long slots must be: we size slots at 2.2x that
   bound and drive the network through the worst dynamic event the paper
   studies - a shortcut edge appearing across a path that the
   Masking-Lemma adversary loaded with Theta(n) skew.

   Reported per algorithm:
   - slot violations on OLD links (the schedule relies on these; the
     paper's Theorem 6.12 promises the gradient algorithm keeps them
     aligned even while absorbing the shortcut);
   - how long the NEW link takes to become slot-safe (no algorithm can
     make this instant - Theorem 4.1's lower bound). *)

let n = 32

let run algo =
  let params = Gcs.Params.make ~b0:10.5 ~n () in
  let slot_length = 2.2 *. Gcs.Params.stable_local_skew params in
  let safe skew = skew < slot_length /. 2. in
  let { Lowerbound.Layered.edges; clocks; delay; t_add } =
    Lowerbound.Layered.closing_path ~n ~rho:params.Gcs.Params.rho
      ~delay_bound:params.Gcs.Params.delay_bound
  in
  let horizon = t_add +. 150. in
  let cfg =
    Gcs.Sim.config ~algo ~params ~clocks ~delay ~initial_edges:edges ()
  in
  let sim = Gcs.Sim.create cfg in
  Gcs.Sim.add_edge_at sim ~at:t_add 0 (n - 1);
  let old_violations = ref 0 in
  let old_samples = ref 0 in
  let new_safe_at = ref None in
  Gcs.Sim.run_until sim t_add;
  Gcs.Metrics.every (Gcs.Sim.engine sim) (Gcs.Sim.view sim) ~every:0.5 ~until:horizon
    (fun snap ->
      snap.Gcs.Metrics.iter_edges (fun u v ->
          let skew = Gcs.Metrics.edge_skew snap u v in
          if (u, v) = (0, n - 1) then begin
            if safe skew && !new_safe_at = None then
              new_safe_at := Some (snap.Gcs.Metrics.time -. t_add);
            if not (safe skew) then new_safe_at := None
          end
          else begin
            incr old_samples;
            if not (safe skew) then incr old_violations
          end));
  Gcs.Sim.run_until sim horizon;
  (slot_length, t_add, !old_violations, !old_samples, !new_safe_at)

let () =
  Format.printf "TDMA slot coordination over a %d-node path + shortcut@.@." n;
  List.iter
    (fun algo ->
      let slot_length, t_add, bad, total, new_safe = run algo in
      Format.printf
        "%-14s slots of %.1f; after the shortcut (t=%.0f):@.\
        \               old-link slot violations %d / %d samples; shortcut slot-safe %s@."
        (Gcs.Sim.algo_to_string algo)
        slot_length t_add bad total
        (match new_safe with
        | Some t -> Printf.sprintf "after %.1f time units" t
        | None -> "never")
      )
    [ Gcs.Sim.Gradient; Gcs.Sim.Max_only ];
  Format.printf
    "@.Sizing slots from the gradient algorithm's stable bound keeps every@.\
     established link collision-free through the topology change; the@.\
     max-only baseline yanks one side of every old link forward at once,@.\
     colliding on links the schedule was entitled to trust.@."
