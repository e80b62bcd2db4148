module Metrics = Gcs.Metrics

let case name f = Alcotest.test_case name `Quick f

let feq = Alcotest.float 1e-9

(* A hand-built view: clocks [0; 3; 10], lmax [5; 5; 10], edges 0-1, 1-2. *)
let view =
  {
    Metrics.n = 3;
    clock_of = (fun i -> [| 0.; 3.; 10. |].(i));
    lmax_of = (fun i -> [| 5.; 5.; 10. |].(i));
    iter_edges = (fun f -> List.iter (fun (u, v) -> f u v) [ (0, 1); (1, 2) ]);
  }

let snap = Metrics.snapshot view ~time:0.

let test_global_skew () = Alcotest.check feq "max - min" 10. (Metrics.global_skew snap)

let test_local_skew () =
  (* edge skews: |0-3| = 3, |3-10| = 7 *)
  Alcotest.check feq "max edge skew" 7. (Metrics.local_skew snap)

let test_edge_skew () =
  Alcotest.check feq "pair 0,2 (no edge needed)" 10. (Metrics.edge_skew snap 0 2);
  Alcotest.check feq "symmetric" 3. (Metrics.edge_skew snap 1 0)

let test_lmax_lag () = Alcotest.check feq "best - worst" 5. (Metrics.lmax_lag snap)

let test_clock_lag () =
  (* per node: 5-0=5, 5-3=2, 0 *)
  Alcotest.check feq "max lag behind own Lmax" 5. (Metrics.clock_lag snap)

let test_no_edges () =
  let lonely = { view with Metrics.iter_edges = (fun _ -> ()) } in
  Alcotest.check feq "local skew 0" 0. (Metrics.local_skew (Metrics.snapshot lonely ~time:0.))

let test_recorder () =
  (* Attach to a real (trivial) engine and check sampling cadence. *)
  let p = Gcs.Params.make ~n:2 () in
  let cfg =
    Gcs.Sim.config ~params:p
      ~clocks:[| Dsim.Hwclock.perfect; Dsim.Hwclock.constant 0.96 |]
      ~delay:(Dsim.Delay.constant ~bound:1. 0.5)
      ~initial_edges:[ (0, 1) ] ()
  in
  let sim = Gcs.Sim.create cfg in
  let rec_ =
    Metrics.attach (Gcs.Sim.engine sim) (Gcs.Sim.view sim) ~every:2. ~until:10.
      ~watch:[ (0, 1) ] ()
  in
  Gcs.Sim.run_until sim 10.;
  let samples = Metrics.samples rec_ in
  Alcotest.(check int) "6 samples (0,2,..,10)" 6 (List.length samples);
  let times = List.map (fun s -> s.Metrics.time) samples in
  Alcotest.(check (list (float 1e-9))) "sample times" [ 0.; 2.; 4.; 6.; 8.; 10. ] times;
  Alcotest.(check int) "trace has same cadence" 6
    (List.length (Metrics.pair_trace rec_ (0, 1)));
  Alcotest.(check (list (pair (float 0.) (float 0.)))) "unwatched pair empty" []
    (Metrics.pair_trace rec_ (0, 2));
  Alcotest.(check bool) "max global >= final" true
    (Metrics.max_global_skew rec_ >= Metrics.global_skew (Metrics.snapshot (Gcs.Sim.view sim) ~time:10.) -. 1e-9)

let suite =
  [
    case "global skew" test_global_skew;
    case "local skew" test_local_skew;
    case "edge skew" test_edge_skew;
    case "lmax lag" test_lmax_lag;
    case "clock lag" test_clock_lag;
    case "no edges" test_no_edges;
    case "recorder sampling" test_recorder;
  ]
