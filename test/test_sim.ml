module Sim = Gcs.Sim
module Params = Gcs.Params
module Hwclock = Dsim.Hwclock
module Delay = Dsim.Delay

let case name f = Alcotest.test_case name `Quick f

let base_cfg ?(algo = Sim.Gradient) ?(n = 8) () =
  let params = Params.make ~n () in
  Sim.config ~algo ~params
    ~clocks:(Array.init n (fun i -> if i mod 2 = 0 then Hwclock.fastest ~rho:0.05 else Hwclock.slowest ~rho:0.05))
    ~delay:(Delay.maximal ~bound:params.Params.delay_bound)
    ~initial_edges:(Topology.Static.path n) ()

let test_runs_and_syncs () =
  let sim = Sim.create (base_cfg ()) in
  Sim.run_until sim 100.;
  let view = Sim.view sim in
  let p = Sim.params sim in
  Alcotest.(check bool) "global skew below bound" true
    (Gcs.Metrics.global_skew (Gcs.Metrics.snapshot view ~time:100.)
    <= Params.global_skew_bound p);
  Alcotest.(check bool) "clocks advanced" true (Sim.logical_clock sim 0 > 50.)

let test_clock_accessors_agree_with_view () =
  let sim = Sim.create (base_cfg ()) in
  Sim.run_until sim 10.;
  let view = Sim.view sim in
  for i = 0 to 7 do
    Alcotest.(check (float 1e-9)) "view = accessor" (Sim.logical_clock sim i)
      (view.Gcs.Metrics.clock_of i)
  done

let test_gradient_node_access () =
  let sim = Sim.create (base_cfg ()) in
  Alcotest.(check bool) "gradient node available" true (Sim.gradient_node sim 0 <> None);
  let max_sim = Sim.create (base_cfg ~algo:Sim.Max_only ()) in
  Alcotest.(check bool) "max-only has no gradient node" true
    (Sim.gradient_node max_sim 0 = None)

let test_counters () =
  let sim = Sim.create (base_cfg ()) in
  Sim.run_until sim 50.;
  Alcotest.(check bool) "messages flowing" true (Sim.total_messages sim > 100);
  Alcotest.(check bool) "some jumps" true (Sim.total_jumps sim > 0)

let test_topology_scheduling () =
  let sim = Sim.create (base_cfg ()) in
  Sim.add_edge_at sim ~at:5. 0 7;
  Sim.remove_edge_at sim ~at:10. 0 7;
  Sim.run_until sim 7.;
  Alcotest.(check bool) "edge added" true
    (Dsim.Dyngraph.has_edge (Dsim.Engine.graph (Sim.engine sim)) 0 7);
  Sim.run_until sim 12.;
  Alcotest.(check bool) "edge removed" false
    (Dsim.Dyngraph.has_edge (Dsim.Engine.graph (Sim.engine sim)) 0 7)

let test_config_validation () =
  let n = 4 in
  let params = Params.make ~n () in
  let good_clocks = Array.init n (fun _ -> Hwclock.perfect) in
  let delay = Delay.zero ~bound:params.Params.delay_bound in
  let edges = Topology.Static.path n in
  (match
     Sim.config ~params ~clocks:(Array.make 3 Hwclock.perfect) ~delay
       ~initial_edges:edges ()
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "wrong clock count accepted");
  (match
     Sim.config ~params
       ~clocks:(Array.init n (fun _ -> Hwclock.constant 1.2))
       ~delay ~initial_edges:edges ()
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "drift violation accepted");
  (match
     Sim.config ~params ~clocks:good_clocks
       ~delay:(Delay.zero ~bound:(2. *. params.Params.delay_bound))
       ~initial_edges:edges ()
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "delay bound above T accepted");
  (match
     Sim.config ~params ~clocks:good_clocks ~delay ~initial_edges:edges
       ~discovery_lag:(params.Params.discovery_bound +. 1.) ()
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "lag above D accepted")

let test_algo_names () =
  Alcotest.(check string) "gradient" "gradient" (Sim.algo_to_string Sim.Gradient);
  Alcotest.(check string) "flat" "flat-gradient" (Sim.algo_to_string Sim.Flat_gradient);
  Alcotest.(check string) "max" "max-only" (Sim.algo_to_string Sim.Max_only)

let test_deterministic_replay () =
  let run () =
    let sim = Sim.create (base_cfg ()) in
    Sim.run_until sim 60.;
    Array.init 8 (Sim.logical_clock sim)
  in
  Alcotest.(check (array (float 0.))) "identical clocks" (run ()) (run ())

let test_larger_network_scales () =
  (* Deterministic scale guard: a 200-node path runs to completion with
     the expected event volume and keeps its guarantees. Stale timer
     entries (cancelled or superseded) are discarded, not dispatched, so
     they do not count towards the volume. *)
  let n = 200 in
  let params = Params.make ~n () in
  let cfg =
    Sim.config ~params
      ~clocks:
        (Array.init n (fun i ->
             if i < n / 2 then Hwclock.fastest ~rho:0.05 else Hwclock.slowest ~rho:0.05))
      ~delay:(Delay.maximal ~bound:params.Params.delay_bound)
      ~initial_edges:(Topology.Static.path n) ()
  in
  let sim = Sim.create cfg in
  Sim.run_until sim 50.;
  let events = Dsim.Engine.events_processed (Sim.engine sim) in
  Alcotest.(check bool) "plausible event volume" true (events > 25_000 && events < 300_000);
  Alcotest.(check bool) "global skew within bound" true
    (Gcs.Metrics.global_skew (Gcs.Metrics.snapshot (Sim.view sim) ~time:50.)
    <= Params.global_skew_bound params)

let suite =
  [
    case "runs and synchronizes" test_runs_and_syncs;
    case "200-node network" test_larger_network_scales;
    case "view agrees with accessors" test_clock_accessors_agree_with_view;
    case "gradient node access" test_gradient_node_access;
    case "counters" test_counters;
    case "topology scheduling" test_topology_scheduling;
    case "config validation" test_config_validation;
    case "algo names" test_algo_names;
    case "deterministic replay" test_deterministic_replay;
  ]
