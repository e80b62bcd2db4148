module Engine = Dsim.Engine
module Hwclock = Dsim.Hwclock
module Delay = Dsim.Delay
module Baseline_max = Gcs.Baseline_max
module Params = Gcs.Params

let case name f = Alcotest.test_case name `Quick f

let build ?(n = 2) ?(clocks = None) ?(initial_edges = [ (0, 1) ]) () =
  let p = Params.make ~n () in
  let clocks =
    match clocks with Some c -> c | None -> Array.init n (fun _ -> Hwclock.perfect)
  in
  let delay = Delay.constant ~bound:p.Params.delay_bound 0.5 in
  let engine =
    Engine.create ~clocks ~delay ~discovery_lag:0. ~initial_edges
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

let suite =
  [
    case "chases the max" test_chases_max;
    case "unbounded jump on reconnection" test_jump_is_unbounded;
    case "upsilon tracking" test_upsilon_tracking;
    case "monotonicity through jumps" test_monotone_and_rate;
    case "periodic updates" test_message_counter;
  ]
