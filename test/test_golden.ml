(* Golden regression test: a fixed, seeded scenario whose sampled skews
   were recorded once and must never change. Executions are deterministic
   (splitmix64 PRNG, tie-broken event queue), so any drift here signals an
   unintended semantic change to the engine or the algorithm. Tolerance is
   1e-6 to allow for float ordering differences across compilers. *)

let golden_samples =
  [
    (0.0, 0.000000000, 0.000000000);
    (10.0, 0.489779391, 0.340168442);
    (20.0, 0.534747615, 0.291794745);
    (30.0, 0.657323124, 0.447444293);
    (40.0, 0.872366464, 0.616537180);
    (50.0, 1.308815116, 0.438554312);
    (60.0, 0.893218487, 0.458016784);
    (70.0, 0.767762740, 0.316445664);
    (80.0, 0.671325490, 0.526921121);
    (90.0, 0.474020644, 0.231721021);
    (100.0, 0.712288452, 0.370080245);
    (110.0, 0.840937744, 0.380201798);
    (120.0, 0.693326987, 0.559846044);
    (130.0, 0.457759473, 0.429694563);
    (140.0, 0.536021417, 0.284215374);
    (150.0, 0.778975038, 0.662272917);
  ]

(* Stale timer entries are discarded rather than dispatched, so the event
   count excludes them; the sampled skews, message/jump counts and final
   clocks below are unchanged from the pre-discard engine, pinning that
   the accounting fix did not alter the dynamics. *)
let golden_events = 5611

let golden_messages = 3789

let golden_jumps = 338

let golden_l0 = 153.890702451

(* The pinned values were recorded when timers still shared the event
   heap; the timer wheel reproduces them exactly. *)
let run_fixed_scenario () =
  let n = 12 in
  let params = Gcs.Params.make ~n () in
  let horizon = 150. in
  let clocks =
    Gcs.Drift.assign params ~horizon ~seed:2026 (Gcs.Drift.Random_walk 15.)
  in
  let delay =
    Dsim.Delay.uniform (Dsim.Prng.of_int 77) ~bound:params.Gcs.Params.delay_bound
  in
  let cfg =
    Gcs.Sim.config ~params ~clocks ~delay
      ~initial_edges:(Topology.Static.ring n) ()
  in
  let sim = Gcs.Sim.create cfg in
  let recorder =
    Gcs.Metrics.attach (Gcs.Sim.engine sim) (Gcs.Sim.view sim) ~every:10.
      ~until:horizon ()
  in
  Gcs.Sim.add_edge_at sim ~at:60. 0 6;
  Gcs.Sim.run_until sim horizon;
  (sim, recorder)

let test_samples () =
  let _, recorder = run_fixed_scenario () in
  let samples = Gcs.Metrics.samples recorder in
  Alcotest.(check int) "sample count" (List.length golden_samples) (List.length samples);
  List.iter2
    (fun (t, g, l) s ->
      Alcotest.(check (float 1e-6)) (Printf.sprintf "time %g" t) t s.Gcs.Metrics.time;
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "global skew at %g" t)
        g s.Gcs.Metrics.global_skew;
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "local skew at %g" t)
        l s.Gcs.Metrics.local_skew)
    golden_samples samples

let test_counters () =
  let sim, _ = run_fixed_scenario () in
  Alcotest.(check int) "events" golden_events
    (Dsim.Engine.events_processed (Gcs.Sim.engine sim));
  Alcotest.(check int) "messages" golden_messages (Gcs.Sim.total_messages sim);
  Alcotest.(check int) "jumps" golden_jumps (Gcs.Sim.total_jumps sim);
  Alcotest.(check (float 1e-6)) "final clock of node 0" golden_l0
    (Gcs.Sim.logical_clock sim 0)

let suite =
  [
    Alcotest.test_case "golden samples" `Quick test_samples;
    Alcotest.test_case "golden counters" `Quick test_counters;
  ]
