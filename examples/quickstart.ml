(* Quickstart: synchronize 16 drifting clocks on a ring.

   Run with: dune exec examples/quickstart.exe

   The five steps below are the whole public API surface you need:
   parameters -> clocks -> delay policy -> simulation -> measurements. *)

let () =
  (* 1. Model parameters (Section 3 of the paper): 16 nodes, 5% drift,
     message delay bound T = 1, updates every subjective 1.0. *)
  let n = 16 in
  let params = Gcs.Params.make ~rho:0.05 ~n () in
  Format.printf "Parameters and derived bounds:@.%a@.@." Gcs.Params.pp params;

  (* 2. Hardware clocks: half the nodes fast, half slow - the adversarial
     steady state. *)
  let horizon = 300. in
  let clocks = Gcs.Drift.assign params ~horizon ~seed:42 Gcs.Drift.Split_extremes in

  (* 3. Message delays: uniformly random in [0, T]. *)
  let delay =
    Dsim.Delay.uniform (Dsim.Prng.of_int 7) ~bound:params.Gcs.Params.delay_bound
  in

  (* 4. Build and run the simulation on a ring. *)
  let cfg =
    Gcs.Sim.config ~params ~clocks ~delay ~initial_edges:(Topology.Static.ring n) ()
  in
  let sim = Gcs.Sim.create cfg in
  let view = Gcs.Sim.view sim in
  let recorder =
    Gcs.Metrics.attach (Gcs.Sim.engine sim) view ~every:1. ~until:horizon ()
  in
  Gcs.Sim.run_until sim horizon;

  (* 5. Measure: one snapshot of every node's clocks, then reduce. *)
  let final = Gcs.Metrics.snapshot view ~time:horizon in
  Format.printf "after %.0f time units:@." horizon;
  Format.printf "  node 0 logical clock   = %.3f@." (Gcs.Sim.logical_clock sim 0);
  Format.printf "  global skew            = %.3f  (bound G(n) = %.3f)@."
    (Gcs.Metrics.global_skew final)
    (Gcs.Params.global_skew_bound params);
  Format.printf "  local skew             = %.3f  (stable bound = %.3f)@."
    (Gcs.Metrics.local_skew final)
    (Gcs.Params.stable_local_skew params);
  Format.printf "  worst global skew seen = %.3f@." (Gcs.Metrics.max_global_skew recorder);
  Format.printf "  messages sent          = %d@." (Gcs.Sim.total_messages sim)
