module Engine = Dsim.Engine
module Hwclock = Dsim.Hwclock
module Delay = Dsim.Delay
module Baseline_max = Gcs.Baseline_max
module Params = Gcs.Params

let case name f = Alcotest.test_case name `Quick f

let build ?(n = 2) ?(clocks = None) ?(initial_edges = [ (0, 1) ]) ?(latency = 0.5)
    ?(faults = []) () =
  let p = Params.make ~n () in
  let clocks =
    match clocks with Some c -> c | None -> Array.init n (fun _ -> Hwclock.perfect)
  in
  let delay = Delay.constant ~bound:p.Params.delay_bound latency in
  let engine =
    Engine.create ~clocks ~delay ~discovery_lag:0. ~initial_edges ~faults
      ~timer_label:Gcs.Proto.timer_label ()
  in
  let nodes = Array.make n None in
  for i = 0 to n - 1 do
    Engine.install engine i (fun ctx ->
        let node = Baseline_max.create p ctx in
        nodes.(i) <- Some node;
        Baseline_max.handlers node)
  done;
  (engine, Array.map Option.get nodes, p)

let test_chases_max () =
  let clocks = [| Hwclock.constant 1.05; Hwclock.constant 0.95 |] in
  let engine, nodes, _ = build ~clocks:(Some clocks) () in
  Engine.run_until engine 100.;
  let l0 = Baseline_max.logical_clock nodes.(0) in
  let l1 = Baseline_max.logical_clock nodes.(1) in
  (* The slow node's clock sits within one update round of the fast one. *)
  Alcotest.(check bool) "slow node keeps up" true (l0 -. l1 < 1.);
  Alcotest.(check bool) "clock equals max estimate after a jump" true
    (Baseline_max.logical_clock nodes.(1) >= Baseline_max.max_estimate nodes.(1) -. 1e-6)

let test_jump_is_unbounded () =
  (* Unlike the gradient algorithm, a max-only node adopts a huge Lmax in
     one discrete step: simulate by letting the fast node run isolated,
     then connecting. *)
  let clocks = [| Hwclock.constant 1.05; Hwclock.constant 0.95 |] in
  let engine, nodes, _ = build ~clocks:(Some clocks) ~initial_edges:[] () in
  Engine.schedule_edge_add engine ~at:100. 0 1;
  Engine.run_until engine 99.9;
  let before = Baseline_max.logical_clock nodes.(1) in
  Engine.run_until engine 103.;
  let after = Baseline_max.logical_clock nodes.(1) in
  (* 100 time units of 0.10 relative drift = 10 units adopted at once. *)
  Alcotest.(check bool) "single jump of ~10" true (after -. before > 9.);
  Alcotest.(check bool) "jump counted" true (Baseline_max.discrete_jumps nodes.(1) >= 1)

let test_upsilon_tracking () =
  let engine, nodes, _ = build () in
  Engine.run_until engine 1.;
  Alcotest.(check (list int)) "peer known" [ 1 ] (Baseline_max.upsilon nodes.(0));
  Engine.schedule_edge_remove engine ~at:1. 0 1;
  Engine.run_until engine 2.;
  Alcotest.(check (list int)) "peer dropped" [] (Baseline_max.upsilon nodes.(0))

let test_monotone_and_rate () =
  let clocks = [| Hwclock.constant 1.05; Hwclock.constant 0.95 |] in
  let engine, nodes, _ = build ~clocks:(Some clocks) ~initial_edges:[] () in
  Engine.schedule_edge_add engine ~at:50. 0 1;
  let prev = ref (-1.) in
  let ok = ref true in
  let rec probe t =
    if t <= 80. then
      Engine.at engine ~time:t (fun () ->
          let l = Baseline_max.logical_clock nodes.(1) in
          if l < !prev then ok := false;
          prev := l;
          probe (t +. 0.25))
  in
  probe 0.;
  Engine.run_until engine 80.;
  Alcotest.(check bool) "monotone through the jump" true !ok

let test_message_counter () =
  let engine, nodes, _ = build () in
  Engine.run_until engine 20.;
  Alcotest.(check bool) "periodic updates sent" true
    (Baseline_max.messages_sent nodes.(0) >= 19)

(* L and Lmax are registers that drift at the node's hardware-clock rate
   between discrete events. *)
let test_registers_drift () =
  let clocks = [| Hwclock.constant 1.05; Hwclock.constant 0.95 |] in
  let engine, nodes, _ = build ~clocks:(Some clocks) ~initial_edges:[] () in
  Engine.run_until engine 10.;
  Alcotest.check (Alcotest.float 1e-9) "fast L" 10.5 (Baseline_max.logical_clock nodes.(0));
  Alcotest.check (Alcotest.float 1e-9) "fast Lmax" 10.5 (Baseline_max.max_estimate nodes.(0));
  Alcotest.check (Alcotest.float 1e-9) "slow L" 9.5 (Baseline_max.logical_clock nodes.(1));
  Engine.run_until engine 20.;
  Alcotest.check (Alcotest.float 1e-9) "still drifting" 19. (Baseline_max.logical_clock nodes.(1))

(* A restart sets both registers at the restart's hardware reading; they
   drift on from there. *)
let test_restart_reanchors () =
  let clocks = [| Hwclock.perfect; Hwclock.constant 1.05 |] in
  let faults =
    [
      Dsim.Fault.Crash { node = 1; at = 5. };
      Dsim.Fault.Restart { node = 1; at = 8.; corrupt = false };
    ]
  in
  let engine, nodes, _ = build ~clocks:(Some clocks) ~initial_edges:[] ~faults () in
  Engine.run_until engine 8.;
  Alcotest.check (Alcotest.float 1e-9) "L reset" 0. (Baseline_max.logical_clock nodes.(1));
  Engine.run_until engine 10.;
  Alcotest.check (Alcotest.float 1e-9) "L from the new anchor" 2.1
    (Baseline_max.logical_clock nodes.(1));
  Alcotest.check (Alcotest.float 1e-9) "Lmax from the new anchor" 2.1
    (Baseline_max.max_estimate nodes.(1))

(* Only a strictly larger Lmax is a jump: with perfect clocks and zero
   delay every received Lmax equals the receiver's own. *)
let test_equal_lmax_no_jump () =
  let engine, nodes, _ = build ~latency:0. () in
  Engine.run_until engine 20.;
  Alcotest.(check bool) "updates exchanged" true (Baseline_max.messages_sent nodes.(0) >= 19);
  Alcotest.(check int) "no jump at 0" 0 (Baseline_max.discrete_jumps nodes.(0));
  Alcotest.(check int) "no jump at 1" 0 (Baseline_max.discrete_jumps nodes.(1))

(* The max estimate Lmax as a register. A read drifts with hardware
   time, never backwards; a received Lmax raises it only when larger. *)
let prop_estimate_monotone =
  QCheck.Test.make ~name:"get is monotone in hardware time" ~count:100
    QCheck.(
      triple (float_bound_inclusive 50.) (float_range 0.95 1.05) (float_bound_inclusive 50.))
    (fun (anchor, rate, dt) ->
      let clocks = [| Hwclock.constant rate; Hwclock.perfect |] in
      let engine, nodes, _ = build ~clocks:(Some clocks) ~initial_edges:[] () in
      Engine.run_until engine anchor;
      let before = Baseline_max.max_estimate nodes.(0) in
      Engine.run_until engine (anchor +. dt);
      Baseline_max.max_estimate nodes.(0) >= before)

(* Isolated until 100, the fast node's Lmax is 105 and the slow node's
   95. On connection each sends its own; the slow node takes 105, the
   fast one keeps its own. *)
let test_estimate_raise_to () =
  let clocks = [| Hwclock.constant 1.05; Hwclock.constant 0.95 |] in
  let engine, nodes, _ = build ~clocks:(Some clocks) ~initial_edges:[] () in
  Engine.schedule_edge_add engine ~at:100. 0 1;
  Engine.run_until engine 101.;
  let feq = Alcotest.float 1e-6 in
  Alcotest.check feq "raise below is no-op" 106.05 (Baseline_max.max_estimate nodes.(0));
  Alcotest.(check int) "no jump at the fast node" 0 (Baseline_max.discrete_jumps nodes.(0));
  Alcotest.check feq "raise above jumps" 105.475 (Baseline_max.max_estimate nodes.(1));
  Alcotest.(check int) "one jump at the slow node" 1 (Baseline_max.discrete_jumps nodes.(1))

let estimate_suite =
  [ case "raise_to" test_estimate_raise_to; QCheck_alcotest.to_alcotest prop_estimate_monotone ]

let suite =
  [
    case "chases the max" test_chases_max;
    case "unbounded jump on reconnection" test_jump_is_unbounded;
    case "upsilon tracking" test_upsilon_tracking;
    case "monotonicity through jumps" test_monotone_and_rate;
    case "periodic updates" test_message_counter;
    case "registers drift at the hardware rate" test_registers_drift;
    case "restart re-anchors the registers" test_restart_reanchors;
    case "equal Lmax is no jump" test_equal_lmax_no_jump;
  ]
