(* Unit tests of Algorithm 2's event handlers, driven through a real engine
   on small hand-built scenarios. *)

module Engine = Dsim.Engine
module Hwclock = Dsim.Hwclock
module Delay = Dsim.Delay
module Node = Gcs.Node
module Params = Gcs.Params

let case name f = Alcotest.test_case name `Quick f

let feq eps = Alcotest.float eps

let params n = Params.make ~n ()

(* Builds a gradient-node simulation over the given edges and returns the
   node states for inspection. *)
let build ?(n = 2) ?(clocks = None) ?(delay = None) ?(discovery_lag = 0.)
    ?(initial_edges = [ (0, 1) ]) ?tolerance ?timeout ?params:p ?trace ?faults () =
  let p = match p with Some p -> p | None -> params n in
  let clocks =
    match clocks with Some c -> c | None -> Array.init n (fun _ -> Hwclock.perfect)
  in
  let delay =
    match delay with Some d -> d | None -> Delay.constant ~bound:p.Params.delay_bound 0.5
  in
  let engine =
    Engine.create ~clocks ~delay ~discovery_lag ~initial_edges ?trace ?faults
      ~fault_seed:17 ~timer_label:Gcs.Proto.timer_label ()
  in
  let nodes = Array.make n None in
  for i = 0 to n - 1 do
    Engine.install engine i (fun ctx ->
        let node = Node.create ?tolerance ?timeout p ctx in
        nodes.(i) <- Some node;
        Node.handlers node)
  done;
  let nodes = Array.map Option.get nodes in
  (engine, nodes, p)

let test_initial_state () =
  let engine, nodes, _ = build () in
  Engine.run_until engine 0.;
  Alcotest.check (feq 1e-9) "L = 0" 0. (Node.logical_clock nodes.(0));
  Alcotest.check (feq 1e-9) "Lmax = 0" 0. (Node.max_estimate nodes.(0));
  Alcotest.(check (list int)) "upsilon from initial discovery" [ 1 ]
    (Node.upsilon nodes.(0))

let test_gamma_after_first_message () =
  let engine, nodes, _ = build () in
  Engine.run_until engine 0.4;
  Alcotest.(check (list int)) "gamma empty before delivery" [] (Node.gamma nodes.(0));
  Engine.run_until engine 0.6;
  Alcotest.(check (list int)) "gamma after delivery" [ 1 ] (Node.gamma nodes.(0));
  Alcotest.(check bool) "estimate exists" true (Node.peer_estimate nodes.(0) 1 <> None)

let test_clock_advances_at_hardware_rate () =
  let clocks = [| Hwclock.constant 1.04; Hwclock.constant 0.96 |] in
  let engine, nodes, _ = build ~clocks:(Some clocks) () in
  Engine.run_until engine 10.;
  (* Node 1 chases node 0's Lmax, so it is at least its own hardware clock
     and at most node 0's plus slack. *)
  Alcotest.(check bool) "node0 >= hardware" true
    (Node.logical_clock nodes.(0) >= 10.4 -. 1e-9);
  Alcotest.(check bool) "node1 above its own hardware rate" true
    (Node.logical_clock nodes.(1) > 9.6)

let test_two_nodes_synchronize () =
  let clocks = [| Hwclock.constant 1.05; Hwclock.constant 0.95 |] in
  let engine, nodes, p = build ~clocks:(Some clocks) () in
  Engine.run_until engine 200.;
  let skew = Float.abs (Node.logical_clock nodes.(0) -. Node.logical_clock nodes.(1)) in
  Alcotest.(check bool) "skew below stable bound" true
    (skew <= Params.stable_local_skew p);
  Alcotest.(check bool) "skew small in absolute terms" true (skew < 3.)

let test_lost_timer_removes_from_gamma () =
  let engine, nodes, p = build ~discovery_lag:0.1 () in
  Engine.run_until engine 5.;
  Alcotest.(check (list int)) "gamma populated" [ 1 ] (Node.gamma nodes.(0));
  (* Remove the edge: node 0 stops hearing from 1. After discovery it
     leaves Upsilon immediately; even without discovery the lost timer
     would clear Gamma after dT'. *)
  Engine.schedule_edge_remove engine ~at:5. 0 1;
  Engine.run_until engine (5. +. 0.1 +. Params.delta_t' p +. 0.1);
  Alcotest.(check (list int)) "gamma cleared" [] (Node.gamma nodes.(0));
  Alcotest.(check (list int)) "upsilon cleared" [] (Node.upsilon nodes.(0))

let test_receive_updates_estimate_every_time () =
  let engine, nodes, _ = build () in
  Engine.run_until engine 3.;
  let e1 = Option.get (Node.peer_estimate nodes.(0) 1) in
  Engine.run_until engine 8.;
  let e2 = Option.get (Node.peer_estimate nodes.(0) 1) in
  Alcotest.(check bool) "estimate tracks peer" true (e2 > e1 +. 4.)

let test_c_anchor_set_once_per_gamma_entry () =
  let engine, nodes, p = build () in
  Engine.run_until engine 10.;
  (* The age H - C grows even though messages keep arriving: C is only set
     when v enters Gamma (lines 17-19), not on every receipt (line 20). *)
  let age1 = Option.get (Node.peer_age nodes.(0) 1) in
  Engine.run_until engine 20.;
  let age2 = Option.get (Node.peer_age nodes.(0) 1) in
  Alcotest.(check bool) "age grows across receipts" true (age2 > age1 +. 9.);
  ignore p

let test_tolerance_decays () =
  let engine, nodes, p = build () in
  Engine.run_until engine 1.;
  let b1 = Option.get (Node.peer_tolerance nodes.(0) 1) in
  Engine.run_until engine 50.;
  let b2 = Option.get (Node.peer_tolerance nodes.(0) 1) in
  Alcotest.(check bool) "B decays" true (b2 < b1);
  Alcotest.(check bool) "B at least B0" true (b2 >= p.Params.b0)

let test_custom_tolerance () =
  let engine, nodes, p = build ~tolerance:(Node.Tol_fun (fun ~peer:_ _ -> 42.)) () in
  Engine.run_until engine 5.;
  Alcotest.check (feq 1e-9) "flat tolerance" 42.
    (Option.get (Node.peer_tolerance nodes.(0) 1));
  ignore p

let test_lmax_propagates () =
  (* Node 0 fast: its Lmax leads; node 1 adopts it on receipt. *)
  let clocks = [| Hwclock.constant 1.05; Hwclock.constant 0.95 |] in
  let engine, nodes, _ = build ~clocks:(Some clocks) () in
  Engine.run_until engine 50.;
  let lmax0 = Node.max_estimate nodes.(0) in
  let lmax1 = Node.max_estimate nodes.(1) in
  Alcotest.(check bool) "close" true (Float.abs (lmax0 -. lmax1) < 1.);
  Alcotest.(check bool) "node1 pulled above its hardware clock" true (lmax1 > 0.95 *. 50.)

let test_never_exceeds_lmax () =
  let clocks = [| Hwclock.constant 1.05; Hwclock.constant 0.95 |] in
  let engine, nodes, _ = build ~clocks:(Some clocks) () in
  let ok = ref true in
  let rec probe t =
    if t <= 60. then
      Engine.at engine ~time:t (fun () ->
          Array.iter
            (fun node ->
              if Node.logical_clock node > Node.max_estimate node +. 1e-9 then ok := false)
            nodes;
          probe (t +. 0.5))
  in
  probe 0.;
  Engine.run_until engine 60.;
  Alcotest.(check bool) "L <= Lmax always (Property 6.3)" true !ok

let test_blocked_detection () =
  (* Three nodes on a path; node 2 far ahead via fast clock, node 0 far
     behind: the middle node's raise is capped by its estimate of node 0
     once skews exceed the (tiny, flat) tolerance. *)
  let clocks =
    [| Hwclock.constant 0.95; Hwclock.constant 1.0; Hwclock.constant 1.05 |]
  in
  let engine, nodes, _ =
    build ~n:3 ~clocks:(Some clocks) ~initial_edges:[ (0, 1); (1, 2) ]
      ~tolerance:(Node.Tol_fun (fun ~peer:_ _ -> 25.6)) ()
  in
  Engine.run_until engine 400.;
  (* node 1 wants Lmax (from node 2) but is held back by node 0. *)
  let lag1 = Node.max_estimate nodes.(1) -. Node.logical_clock nodes.(1) in
  if lag1 > 1e-6 then
    Alcotest.(check bool) "lagging node is blocked" true (Node.is_blocked nodes.(1))

let test_jump_counter () =
  let clocks = [| Hwclock.constant 1.05; Hwclock.constant 0.95 |] in
  let engine, nodes, _ = build ~clocks:(Some clocks) () in
  Engine.run_until engine 50.;
  Alcotest.(check bool) "slow node jumps" true (Node.discrete_jumps nodes.(1) > 0);
  Alcotest.(check bool) "messages sent" true (Node.messages_sent nodes.(0) > 40)

let test_gamma_reentry_resets_tolerance () =
  (* Lemma 6.10 hinges on C^v being the time v LAST entered Gamma: when an
     edge disappears long enough for v to leave Gamma and then returns,
     the edge must be treated as brand new (tolerance back at B(0)). *)
  let engine, nodes, p = build ~discovery_lag:0.05 () in
  Engine.run_until engine 40.;
  let b_aged = Option.get (Node.peer_tolerance nodes.(0) 1) in
  Alcotest.(check bool) "tolerance decayed to the floor by t=40" true
    (b_aged <= p.Params.b0 +. 1e-6);
  Engine.schedule_edge_remove engine ~at:40. 0 1;
  Engine.schedule_edge_add engine ~at:50. 0 1;
  Engine.run_until engine 45.;
  Alcotest.(check (list int)) "gamma empty while down" [] (Node.gamma nodes.(0));
  Engine.run_until engine 52.;
  let age = Option.get (Node.peer_age nodes.(0) 1) in
  let b_fresh = Option.get (Node.peer_tolerance nodes.(0) 1) in
  Alcotest.(check bool) "age restarted" true (age < 3.);
  Alcotest.(check bool) "tolerance back near B(0)" true (b_fresh > Params.b p 5.)

let test_gamma_reentry_after_silence_only () =
  (* Even without any discover(remove) - pure silence via the lost timer -
     re-entry must reset C^v. Silence is forced by removing the edge with
     a discovery lag longer than the test. *)
  let engine, nodes, p = build ~discovery_lag:1000. () in
  Engine.run_until engine 40.;
  Engine.schedule_edge_remove engine ~at:40. 0 1;
  (* No discovery: gamma is cleared by the lost timer after dT'. *)
  Engine.run_until engine (41. +. Params.delta_t' p +. 0.5);
  Alcotest.(check (list int)) "gamma cleared by silence" [] (Node.gamma nodes.(0));
  Alcotest.(check (list int)) "upsilon still believes the edge" [ 1 ]
    (Node.upsilon nodes.(0));
  Engine.schedule_edge_add engine ~at:50. 0 1;
  Engine.run_until engine 55.;
  let age = Option.get (Node.peer_age nodes.(0) 1) in
  Alcotest.(check bool) "age restarted after silence" true (age < 6.)

let test_discover_remove_cancels_lost_timer () =
  (* Discovery of an edge removal drops the peer from Γ; the pending
     Lost timer must be cancelled with it, or it later fires as a live
     timer and churns AdjustClock for a peer that is long gone. Large ΔH
     keeps Tick timers out of the window, so every Timer_fire below
     would be a stale Lost firing. *)
  let p =
    Params.make ~n:2 ~delta_h:50. ()
  in
  let trace = Dsim.Trace.create () in
  let engine, nodes, _ =
    build ~params:p ~trace ~timeout:(Node.Timeout_fun (fun ~peer:_ -> 3.)) ()
  in
  Engine.schedule_edge_remove engine ~at:1. 0 1;
  (* Updates exchanged at t=0 arrive at t=0.5 and arm Lost timers for
     t=3.5; the removal is discovered at t=1. Run well past 3.5. *)
  Engine.run_until engine 10.;
  Alcotest.(check (list int)) "gamma cleared" [] (Node.gamma nodes.(0));
  Alcotest.(check int) "no live timer fires after cancellation" 0
    (Dsim.Trace.count trace Dsim.Trace.Timer_fire);
  Alcotest.(check int) "both cancelled Lost timers pop as stale" 2
    (Dsim.Trace.count trace Dsim.Trace.Timer_stale)

let test_isolated_node_follows_own_clock () =
  let engine, nodes, _ = build ~n:2 ~initial_edges:[] () in
  Engine.run_until engine 10.;
  Alcotest.check (feq 1e-9) "L = hardware" 10. (Node.logical_clock nodes.(0));
  Alcotest.(check (list int)) "no neighbours" [] (Node.upsilon nodes.(0))

(* Restart semantics (fault injection): the crash loses every piece of
   volatile state, so right after the restart event — before any
   post-restart receipt — the peer table is empty except for re-discovered
   Upsilon membership, estimates are gone, and the clock registers are
   back at the initial state. *)
let test_restart_loses_state () =
  let faults =
    [
      Dsim.Fault.Crash { node = 1; at = 5. };
      Dsim.Fault.Restart { node = 1; at = 8.; corrupt = false };
    ]
  in
  let engine, nodes, _ = build ~faults () in
  Engine.run_until engine 4.;
  Alcotest.(check (list int)) "gamma populated before crash" [ 0 ]
    (Node.gamma nodes.(1));
  Alcotest.(check bool) "clock advanced before crash" true
    (Node.logical_clock nodes.(1) > 3.);
  Engine.run_until engine 8.;
  (* t = 8: the restart and the re-discovery fire, but the first
     post-restart delivery (constant delay 0.5) has not happened yet. *)
  Alcotest.(check (list int)) "gamma empty after restart" [] (Node.gamma nodes.(1));
  Alcotest.(check (list int)) "upsilon re-discovered" [ 0 ] (Node.upsilon nodes.(1));
  Alcotest.(check bool) "peer estimate forgotten" true
    (Node.peer_estimate nodes.(1) 0 = None);
  Alcotest.check (feq 1e-9) "L reset" 0. (Node.logical_clock nodes.(1));
  Alcotest.check (feq 1e-9) "Lmax reset" 0. (Node.max_estimate nodes.(1));
  (* The survivor's state is untouched and re-synchronization follows. *)
  Alcotest.(check bool) "peer kept its clock" true (Node.logical_clock nodes.(0) > 7.);
  Engine.run_until engine 30.;
  Alcotest.(check (list int)) "gamma recovered" [ 0 ] (Node.gamma nodes.(1));
  Alcotest.(check bool) "clocks re-synchronized" true
    (Float.abs (Node.logical_clock nodes.(0) -. Node.logical_clock nodes.(1)) < 2.)

let test_corrupt_restart_recovers () =
  let faults =
    [
      Dsim.Fault.Crash { node = 1; at = 5. };
      Dsim.Fault.Restart { node = 1; at = 8.; corrupt = true };
    ]
  in
  let engine, nodes, p = build ~faults () in
  Engine.run_until engine 8.;
  let l = Node.logical_clock nodes.(1) and m = Node.max_estimate nodes.(1) in
  Alcotest.(check bool) "corrupted registers stay ordered" true (l <= m);
  Alcotest.(check bool) "corruption drew garbage" true (l <> 0. || m <> 0.);
  Engine.run_until engine 80.;
  Alcotest.(check bool) "skew re-enters the global bound" true
    (Float.abs (Node.logical_clock nodes.(0) -. Node.logical_clock nodes.(1))
    <= Params.global_skew_bound p)

let suite =
  [
    case "initial state" test_initial_state;
    case "gamma entered on first message" test_gamma_after_first_message;
    case "clock advances at hardware rate" test_clock_advances_at_hardware_rate;
    case "two nodes synchronize" test_two_nodes_synchronize;
    case "edge removal clears gamma and upsilon" test_lost_timer_removes_from_gamma;
    case "receive refreshes estimates" test_receive_updates_estimate_every_time;
    case "C anchor persists across receipts" test_c_anchor_set_once_per_gamma_entry;
    case "tolerance decays to B0" test_tolerance_decays;
    case "custom (flat) tolerance" test_custom_tolerance;
    case "Lmax propagates" test_lmax_propagates;
    case "L never exceeds Lmax" test_never_exceeds_lmax;
    case "blocked detection" test_blocked_detection;
    case "jump and message counters" test_jump_counter;
    case "gamma re-entry resets the tolerance clock" test_gamma_reentry_resets_tolerance;
    case "gamma re-entry after pure silence" test_gamma_reentry_after_silence_only;
    case "discover(remove) cancels the lost timer" test_discover_remove_cancels_lost_timer;
    case "isolated node follows own clock" test_isolated_node_follows_own_clock;
    case "restart loses volatile state" test_restart_loses_state;
    case "corrupted restart stays ordered and recovers" test_corrupt_restart_recovers;
  ]
