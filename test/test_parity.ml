(* Scheduling parity: every engine configuration that claims to match the
   sequential reference — shard count, domain count, window mode —
   must reproduce its dispatch order, structured trace and
   counters byte for byte (DESIGN.md §10, §14). The sequential runs
   themselves are pinned to digests recorded when timers still shared
   the event heap, the engine's original single-queue order: the wheel
   draws its tie-break seqs from the queue's counter and surfaces
   entries in the same (time, seq) order, so any drift here is a
   determinism-contract break. *)

module Engine = Dsim.Engine
module Hwclock = Dsim.Hwclock
module Delay = Dsim.Delay
module Trace = Dsim.Trace

let case name f = Alcotest.test_case name `Quick f

let digest trace = Digest.to_hex (Digest.string (Trace.to_csv trace))

(* Assert a run against the values pinned for it: trace digest, events
   dispatched, events still pending and armed timers at the horizon. *)
let check_pinned ~md5 ~events ~pending ~live engine trace =
  Alcotest.(check string) "trace digest" md5 (digest trace);
  Alcotest.(check int) "events processed" events (Engine.events_processed engine);
  Alcotest.(check int) "pending events" pending (Engine.pending_events engine);
  Alcotest.(check int) "live timers" live (Engine.live_timers engine)

(* A timer-heavy toy protocol over int timer labels: each node keeps a
   periodic label-0 tick broadcasting to all peers it has heard from, and
   per-source label-(src+1) timeouts re-armed on every receipt — the same
   arm/re-arm/cancel pattern as the gradient algorithm's Lost timers.
   [scheduler] passes through to [Engine.create]. *)
let build ?scheduler ~trace () =
  let n = 8 in
  let clocks =
    Array.init n (fun i ->
        Hwclock.two_rate ~rho:0.05 ~period:(7. +. float_of_int i)
          ~horizon:200. ~fast_first:(i mod 2 = 0))
  in
  let delay = Delay.uniform (Dsim.Prng.of_int 42) ~bound:1.0 in
  let initial_edges = Topology.Static.ring n in
  let engine =
    Engine.create ~clocks ~delay ~discovery_lag:0.4 ~initial_edges ~trace
      ~timer_label:(fun t -> t) ?scheduler ()
  in
  for i = 0 to n - 1 do
    Engine.install engine i (fun ctx ->
        let heard = Hashtbl.create 8 in
        let broadcast () =
          Hashtbl.iter (fun v () -> Engine.send ctx ~dst:v i) heard
        in
        {
          Engine.on_init = (fun () -> Engine.set_timer ctx ~after:0.9 0);
          on_discover_add = (fun v -> Hashtbl.replace heard v ());
          on_discover_remove =
            (fun v ->
              Hashtbl.remove heard v;
              Engine.cancel_timer ctx (v + 1));
          on_receive =
            (fun src _ ->
              Hashtbl.replace heard src ();
              Engine.set_timer ctx ~after:2.7 (src + 1));
          on_timer =
            (fun t ->
              if t = 0 then begin
                broadcast ();
                Engine.set_timer ctx ~after:0.9 0
              end
              else Hashtbl.remove heard (t - 1));
        })
  done;
  (* Churn a few ring edges so cancels, re-discoveries and in-flight
     drops all happen. *)
  Engine.schedule_edge_remove engine ~at:11.3 0 1;
  Engine.schedule_edge_add engine ~at:14.8 0 1;
  Engine.schedule_edge_remove engine ~at:20.1 3 4;
  Engine.schedule_edge_add engine ~at:20.2 2 4;
  Engine.schedule_edge_add engine ~at:33.9 3 4;
  engine

(* Granularity sets how many granules the wheel walks, never the order:
   the pin holds at the default width (a sixteenth of the delay bound),
   at a coarse 4.0, where several ticks share a granule and out-of-order
   arrivals go into the due set's heap, and at a fine 1e-3. *)
let test_engine_pinned ?scheduler () =
  let trace = Trace.create ~log_limit:200_000 () in
  let engine = build ?scheduler ~trace () in
  Engine.run_until engine 80.;
  check_pinned ~md5:"44463a9ee8acd5eec299f95ac4221ea4" ~events:2238 ~pending:35
    ~live:26 engine trace

(* Full-stack runs: the gradient algorithm on a seeded churned topology,
   audited trace and all. This is the scenario class the wheel was built
   for (periodic ΔH ticks plus per-peer ΔT' lost timers at scale). *)
let run_sim ?(faults = []) ?(shards = 1) () =
  let n = 24 in
  let horizon = 50. in
  let params = Gcs.Params.make ~n () in
  let edges = Topology.Static.ring n in
  let clocks = Gcs.Drift.assign params ~horizon ~seed:5 Gcs.Drift.Split_extremes in
  let delay =
    Dsim.Delay.uniform (Dsim.Prng.of_int 9) ~bound:params.Gcs.Params.delay_bound
  in
  let trace = Trace.create ~log_limit:500_000 () in
  let cfg =
    Gcs.Sim.config ~shards ~params ~clocks ~delay ~initial_edges:edges ~trace
      ~faults ~fault_seed:21 ()
  in
  let sim = Gcs.Sim.create cfg in
  Topology.Churn.schedule (Gcs.Sim.engine sim)
    (Topology.Churn.random_churn (Dsim.Prng.of_int 13) ~n ~base:edges ~rate:0.4
       ~horizon);
  Gcs.Sim.run_until sim horizon;
  (sim, trace)

let sim_md5 = "9c6e03d99b57a1bae0a7a1eee20895a7"

let test_sim_pinned () =
  let sim, trace = run_sim () in
  check_pinned ~md5:sim_md5 ~events:4917 ~pending:168 ~live:117
    (Gcs.Sim.engine sim) trace

(* The trace must also satisfy the conformance auditor, including the
   lost-timer cadence rule that reads the timer label field. *)
let test_wheel_trace_audits_clean () =
  let sim, trace = run_sim () in
  let cfg =
    Audit.Conformance.of_params (Gcs.Sim.params sim) ~horizon:50. ()
  in
  let report = Audit.Conformance.audit cfg (Trace.entries trace) in
  Alcotest.(check int) "no violations" 0
    (List.length report.Audit.Report.violations);
  Alcotest.(check bool) "events audited" true (report.Audit.Report.events_audited > 0)

(* Fault replay: the whole fault layer — crash/restart events, dup
   pushes, Byzantine corruption draws, incarnation drops — is routed
   through the shared event queue, so it must replay byte-identically
   to its pinned digest, and the fault-aware auditor must accept the
   trace. *)
let parity_faults =
  [
    Dsim.Fault.Crash { node = 4; at = 8. };
    Dsim.Fault.Restart { node = 4; at = 16.5; corrupt = true };
    Dsim.Fault.Crash { node = 11; at = 20. };
    Dsim.Fault.Restart { node = 11; at = 27.25; corrupt = false };
    Dsim.Fault.Duplicate { src = 0; dst = 1; from_ = 5.; until = 30. };
    Dsim.Fault.Reorder { src = 7; dst = 8; from_ = 10.; until = 35. };
    Dsim.Fault.Byzantine { node = 17; from_ = 12.; until = 24. };
  ]

let test_sim_pinned_faulted () =
  let sim, trace = run_sim ~faults:parity_faults () in
  check_pinned ~md5:"0ae19bd4995d34a3161966d0c1de1ad5" ~events:4887 ~pending:170
    ~live:116 (Gcs.Sim.engine sim) trace;
  Alcotest.(check bool) "fault events present" true
    (Dsim.Trace.count trace Dsim.Trace.Fault_crash > 0
    && Dsim.Trace.count trace Dsim.Trace.Fault_duplicate > 0
    && Dsim.Trace.count trace Dsim.Trace.Fault_byzantine_msg > 0);
  let cfg =
    Audit.Conformance.of_params (Gcs.Sim.params sim) ~horizon:50.
      ~faults:parity_faults ()
  in
  let report = Audit.Conformance.audit cfg (Trace.entries trace) in
  Alcotest.(check int) "faulted trace audits clean" 0
    (List.length report.Audit.Report.violations)

(* Shard parity: partitioning the node ids across per-shard queues and
   wheels moves every cross-shard event through the outbox merge barrier,
   yet the global sequence counter keeps the merged (time, seq) order —
   and therefore the trace — byte-identical at every shard count
   (DESIGN.md §12). n=24 with 7 shards exercises uneven ranges (the last
   shard owns a wider tail). *)
let test_shard_parity () =
  let base, base_trace = run_sim ~shards:1 () in
  Alcotest.(check string) "reference matches its pin" sim_md5 (digest base_trace);
  let base_csv = Trace.to_csv base_trace in
  List.iter
    (fun shards ->
      let sim, trace = run_sim ~shards () in
      Alcotest.(check int)
        (Printf.sprintf "events processed (shards=%d)" shards)
        (Dsim.Engine.events_processed (Gcs.Sim.engine base))
        (Dsim.Engine.events_processed (Gcs.Sim.engine sim));
      Alcotest.(check string)
        (Printf.sprintf "byte-identical trace (shards=%d)" shards)
        base_csv (Trace.to_csv trace))
    [ 2; 4; 7 ]

(* Fault events cross shard boundaries too: crashes purge remote state,
   duplication re-pushes on the send path, restarts re-discover. All of
   it must replay byte-identically under sharding. *)
let test_shard_parity_faulted () =
  let _, base_trace = run_sim ~faults:parity_faults () in
  let _, sharded_trace = run_sim ~faults:parity_faults ~shards:3 () in
  Alcotest.(check string) "byte-identical faulted trace (shards=3)"
    (Trace.to_csv base_trace) (Trace.to_csv sharded_trace)

(* Parallel-window parity: with a pure delay policy of positive min_lat
   the engine dispatches the shards in conservative windows, handing out
   provisional per-lane ranks that the merge barrier rewrites to the
   exact sequential ones (DESIGN.md §14). The jittered keyed-uniform
   policy makes the delays non-degenerate (every message gets its own
   hash-drawn latency) while keeping the lookahead positive, and churn
   keeps control events interleaving with the windows. The contract:
   (shards, jobs) is pure placement — every combination must reproduce
   the sequential trace byte for byte. *)
let run_sim_windowed ?(faults = []) ?(shards = 1) ?(jobs = 1) ?on_entry () =
  let n = 24 in
  let horizon = 50. in
  let params = Gcs.Params.make ~n () in
  let edges = Topology.Static.ring n in
  let clocks = Gcs.Drift.assign params ~horizon ~seed:5 Gcs.Drift.Split_extremes in
  let bound = params.Gcs.Params.delay_bound in
  let delay = Dsim.Delay.uniform_keyed ~seed:9 ~lo:(0.25 *. bound) ~bound () in
  let trace =
    match on_entry with
    | None -> Trace.create ~log_limit:500_000 ()
    | Some on_entry -> Trace.create ~on_entry ()
  in
  let cfg =
    Gcs.Sim.config ~shards ~params ~clocks ~delay ~initial_edges:edges ~trace
      ~faults ~fault_seed:21 ()
  in
  let sim = Gcs.Sim.create cfg in
  Topology.Churn.schedule (Gcs.Sim.engine sim)
    (Topology.Churn.random_churn (Dsim.Prng.of_int 13) ~n ~base:edges ~rate:0.4
       ~horizon);
  (if jobs > 1 then begin
     (* Lift the ambient domain budget so worker domains really spawn —
        otherwise a single-core host would cap the pool to the caller
        and this test would never cross a domain boundary. *)
     let saved = Runner.default_jobs () in
     Runner.set_default_jobs (max saved jobs);
     Fun.protect
       ~finally:(fun () -> Runner.set_default_jobs saved)
       (fun () ->
         Runner.scoped ~jobs (fun pool ->
             let engine = Gcs.Sim.engine sim in
             Dsim.Engine.set_executor engine (Some (Runner.run pool));
             Fun.protect
               ~finally:(fun () -> Dsim.Engine.set_executor engine None)
               (fun () -> Gcs.Sim.run_until sim horizon)))
   end
   else Gcs.Sim.run_until sim horizon);
  (sim, trace)

let test_parallel_dispatch_parity () =
  let base, base_trace = run_sim_windowed ~shards:1 () in
  (* The sequential reference matches its pin — the keyed delay changes
     nothing about the single-queue order. *)
  check_pinned ~md5:"07ab1d4a755476e02e80bdefa65e7f32" ~events:4907 ~pending:177
    ~live:116 (Gcs.Sim.engine base) base_trace;
  let base_csv = Trace.to_csv base_trace in
  List.iter
    (fun shards ->
      List.iter
        (fun jobs ->
          let sim, trace = run_sim_windowed ~shards ~jobs () in
          Alcotest.(check int)
            (Printf.sprintf "events processed (shards=%d jobs=%d)" shards jobs)
            (Dsim.Engine.events_processed (Gcs.Sim.engine base))
            (Dsim.Engine.events_processed (Gcs.Sim.engine sim));
          Alcotest.(check string)
            (Printf.sprintf "byte-identical trace (shards=%d jobs=%d)" shards
               jobs)
            base_csv (Trace.to_csv trace))
        [ 1; shards ])
    [ 2; 4; 7 ]

(* A consumer with no log beside it: window entries replay to it at the
   barrier, so the CSV it writes as records happen equals the sequential
   run's log byte for byte at every (shards, jobs). *)
let test_consumer_parity_under_windows () =
  let _, base_trace = run_sim_windowed ~shards:1 () in
  let base_csv = Trace.to_csv base_trace in
  List.iter
    (fun shards ->
      List.iter
        (fun jobs ->
          let buf = Buffer.create 4096 in
          Buffer.add_string buf Trace.csv_header;
          let _, trace =
            run_sim_windowed ~shards ~jobs
              ~on_entry:(fun e -> Buffer.add_string buf (Trace.csv_row e))
              ()
          in
          Alcotest.(check bool)
            (Printf.sprintf "windows formed (shards=%d jobs=%d)" shards jobs)
            (shards > 1) (Trace.windows trace > 0);
          Alcotest.(check string)
            (Printf.sprintf "consumer CSV = sequential log (shards=%d jobs=%d)"
               shards jobs)
            base_csv (Buffer.contents buf))
        [ 1; 2 ])
    [ 1; 2; 4 ]

(* Quiet-control window parity: without churn the control queue goes
   quiet after the initial discovery burst, so nothing but the horizon
   cuts the engine's [min_lat] windows short, and every window closes
   with its own merge barrier. The grid pins two things at once, per topology:
   every (shards, jobs) point still reproduces the sequential trace byte
   for byte, and windows and barriers stay one to one. The cluster
   topology scatters community members across the id range, the worst
   case for the contiguous split (most events cross shards). Window
   accounting must stay honest too: the events the windows dispatched
   are a real, positive share of all events dispatched. *)
let run_sim_adaptive ~edges ?(shards = 1) ?(jobs = 1) ?(horizon = 50.) () =
  let n = 24 in
  let params = Gcs.Params.make ~n () in
  let clocks = Gcs.Drift.assign params ~horizon ~seed:5 Gcs.Drift.Split_extremes in
  let bound = params.Gcs.Params.delay_bound in
  let delay = Dsim.Delay.uniform_keyed ~seed:9 ~lo:(0.25 *. bound) ~bound () in
  let trace = Trace.create ~log_limit:500_000 () in
  let cfg =
    Gcs.Sim.config ~shards ~params ~clocks ~delay ~initial_edges:edges ~trace ()
  in
  let sim = Gcs.Sim.create cfg in
  (if jobs > 1 then begin
     let saved = Runner.default_jobs () in
     Runner.set_default_jobs (max saved jobs);
     Fun.protect
       ~finally:(fun () -> Runner.set_default_jobs saved)
       (fun () ->
         Runner.scoped ~jobs (fun pool ->
             let engine = Gcs.Sim.engine sim in
             Dsim.Engine.set_executor engine (Some (Runner.run pool));
             Fun.protect
               ~finally:(fun () -> Dsim.Engine.set_executor engine None)
               (fun () -> Gcs.Sim.run_until sim horizon)))
   end
   else Gcs.Sim.run_until sim horizon);
  (sim, trace)

let test_adaptive_window_parity () =
  let topologies =
    [
      ("path", Topology.Static.path 24);
      ( "cluster",
        Topology.Static.cluster (Dsim.Prng.of_int 11) ~n:24 ~clusters:4 ~degree:4
      );
    ]
  in
  List.iter
    (fun (name, edges) ->
      let base, base_trace = run_sim_adaptive ~edges () in
      let base_csv = Trace.to_csv base_trace in
      List.iter
        (fun shards ->
          List.iter
            (fun jobs ->
              let sim, trace = run_sim_adaptive ~edges ~shards ~jobs () in
              let tag = Printf.sprintf "(%s shards=%d jobs=%d)" name shards jobs in
              Alcotest.(check int)
                ("events processed " ^ tag)
                (Dsim.Engine.events_processed (Gcs.Sim.engine base))
                (Dsim.Engine.events_processed (Gcs.Sim.engine sim));
              Alcotest.(check string)
                ("byte-identical trace " ^ tag)
                base_csv (Trace.to_csv trace);
              Alcotest.(check int)
                ("one barrier per window " ^ tag)
                (Trace.windows trace) (Trace.barriers trace);
              let events = Dsim.Engine.events_processed (Gcs.Sim.engine sim) in
              Alcotest.(check bool)
                (Printf.sprintf "0 < window events %d <= events %d %s"
                   (Trace.window_events trace) events tag)
                true
                (Trace.window_events trace > 0 && Trace.window_events trace <= events))
            [ 1; shards ])
        [ 2; 4; 7 ])
    topologies

(* The window machinery's memory is bounded by one window, not by the
   run: every buffer a lane pools (final-rank table, dispatch log, entry
   buffer) is sized by the largest window so far, and the footprint
   counts them. So the sharded run's footprint above the sequential
   run's must not grow with the horizon once windows reach steady
   state — a table that spanned several windows would grow with it. *)
let test_window_footprint_bounded () =
  let edges = Topology.Static.path 24 in
  let excess horizon =
    let fp shards =
      let sim, _ = run_sim_adaptive ~edges ~shards ~horizon () in
      Dsim.Engine.footprint_words (Gcs.Sim.engine sim)
    in
    fp 2 - fp 1
  in
  let short = excess 50. and long = excess 200. in
  Alcotest.(check bool)
    (Printf.sprintf "sharded excess %d words at horizon 50, %d at 200" short
       long)
    true
    (short > 0 && 4 * long <= 5 * short)

(* A fault schedule turns the parallel gate off at create time; a
   sharded multi-domain run must then take the sequential path (the
   executor never fires) and still replay the campaign byte-identically. *)
let test_parallel_dispatch_parity_faulted () =
  let _, base_trace = run_sim_windowed ~faults:parity_faults () in
  let _, par_trace = run_sim_windowed ~faults:parity_faults ~shards:4 ~jobs:4 () in
  Alcotest.(check string)
    "byte-identical faulted trace (shards=4 jobs=4)"
    (Trace.to_csv base_trace) (Trace.to_csv par_trace)

(* The trace coming out of a genuinely parallel run must satisfy the
   conformance auditor — barrier re-ranking has to keep entries in
   dispatch order, FIFO per link, delays within [0, T]. *)
let test_parallel_trace_audits_clean () =
  let sim, trace = run_sim_windowed ~shards:4 ~jobs:4 () in
  let cfg = Audit.Conformance.of_params (Gcs.Sim.params sim) ~horizon:50. () in
  let report = Audit.Conformance.audit cfg (Trace.entries trace) in
  Alcotest.(check int) "no violations" 0
    (List.length report.Audit.Report.violations);
  Alcotest.(check bool) "events audited" true
    (report.Audit.Report.events_audited > 0)

(* The window seams' misuse guards, on a churn-free 4-shard run whose
   windows run uninterrupted. A commuting callback dispatching inside a
   window may not schedule a control event: a topology change or a
   plain callback fails loudly before anything is pushed, so the graph
   is untouched. A pure policy that draws below its own [min_lat] is
   caught at the first cross-shard send inside a window. *)
let windowed_sim delay =
  let n = 24 in
  let params = Gcs.Params.make ~n () in
  let clocks = Gcs.Drift.assign params ~horizon:50. ~seed:5 Gcs.Drift.Split_extremes in
  Gcs.Sim.create
    (Gcs.Sim.config ~shards:4 ~params ~clocks ~delay:(delay params.Gcs.Params.delay_bound)
       ~initial_edges:(Topology.Static.ring n) ())

let test_commuting_callback_guard () =
  List.iter
    (fun (what, schedule) ->
      let sim =
        windowed_sim (fun bound -> Delay.uniform_keyed ~seed:9 ~lo:(0.25 *. bound) ~bound ())
      in
      let engine = Gcs.Sim.engine sim in
      let edges = Dsim.Dyngraph.edge_count (Engine.graph engine) in
      Engine.at ~commuting:true engine ~time:10. (fun () -> schedule engine);
      Alcotest.check_raises what
        (Failure
           "Engine: a commuting callback scheduled a non-commuting event inside a \
            parallel window")
        (fun () -> Gcs.Sim.run_until sim 20.);
      Alcotest.(check int)
        ("edge count unchanged after " ^ what)
        edges
        (Dsim.Dyngraph.edge_count (Engine.graph engine)))
    [
      ("schedule_edge_add", fun e -> Engine.schedule_edge_add e ~at:15. 0 12);
      ("Engine.at", fun e -> Engine.at e ~time:15. ignore);
    ]

let test_min_lat_guard () =
  let sim =
    windowed_sim (fun bound ->
        Delay.directed ~pure:true ~min_lat:(0.5 *. bound) ~bound (fun ~src:_ ~dst:_ ~now:_ ->
            0.1 *. bound))
  in
  Alcotest.check_raises "draw below min_lat"
    (Failure "Engine: delay policy violated its min_lat promise inside a parallel window")
    (fun () -> Gcs.Sim.run_until sim 20.)

(* Under a constant delay the engine keeps no FIFO floors: one sender's
   sends leave at non-decreasing times, so a floor could never bind. The
   same policy with [const = -1.] draws the same constant through its
   closure and takes the floor path; the two must trace byte for byte
   alike, on a path and on a churned ring with a reorder window. The
   drawn run's footprint also holds the floor stores, 12 words per
   sending node at degree <= 2 (three 4-cell columns), and the constant
   run's none of them. *)
let run_const_delay ~churn ~drawn () =
  let n = 64 in
  let horizon = 40. in
  let params = Gcs.Params.make ~n () in
  let edges = (if churn then Topology.Static.ring else Topology.Static.path) n in
  let clocks = Gcs.Drift.assign params ~horizon ~seed:3 Gcs.Drift.Split_extremes in
  let bound = params.Gcs.Params.delay_bound in
  let delay = Delay.constant ~bound (0.6 *. bound) in
  let delay = if drawn then { delay with Delay.const = -1. } else delay in
  let faults =
    if churn then [ Dsim.Fault.Reorder { src = 7; dst = 8; from_ = 10.; until = 25. } ]
    else []
  in
  let trace = Trace.create ~log_limit:1_000_000 () in
  let cfg =
    Gcs.Sim.config ~params ~clocks ~delay ~initial_edges:edges ~trace ~faults ()
  in
  let sim = Gcs.Sim.create cfg in
  if churn then
    Topology.Churn.schedule (Gcs.Sim.engine sim)
      (Topology.Churn.random_churn (Dsim.Prng.of_int 13) ~n ~base:edges ~rate:0.4
         ~horizon);
  Gcs.Sim.run_until sim horizon;
  (Trace.to_csv trace, Engine.footprint_words (Gcs.Sim.engine sim))

let test_fifo_elision_exact () =
  List.iter
    (fun churn ->
      let name = if churn then "churned ring" else "path" in
      let csv, words = run_const_delay ~churn ~drawn:false () in
      let csv', words' = run_const_delay ~churn ~drawn:true () in
      Alcotest.(check bool) (name ^ ": trace is not empty") true
        (String.length csv > 100_000);
      Alcotest.(check string) (name ^ ": byte-identical trace") csv' csv;
      if churn then
        Alcotest.(check bool)
          (Printf.sprintf "%s: no floor store (%d vs %d words)" name words words')
          true
          (words' - words >= 12 * 64)
      else
        Alcotest.(check int) (name ^ ": no floor store") (12 * 64) (words' - words))
    [ false; true ]

let suite =
  [
    case "engine: timer-heavy protocol matches its pin" test_engine_pinned;
    case "engine: the pin holds at granularity 4.0"
      (test_engine_pinned ~scheduler:(`Wheel 4.0));
    case "engine: the pin holds at granularity 1e-3"
      (test_engine_pinned ~scheduler:(`Wheel 1e-3));
    case "sim: sharded = unsharded, byte-identical" test_shard_parity;
    case "sim: sharded fault campaign, byte-identical" test_shard_parity_faulted;
    case "sim: parallel windows, shards x jobs grid, byte-identical"
      test_parallel_dispatch_parity;
    case "sim: a consumer under windows writes the sequential CSV"
      test_consumer_parity_under_windows;
    case "sim: adaptive windows, shards x jobs x topology grid"
      test_adaptive_window_parity;
    case "sim: window buffers do not grow with the horizon"
      test_window_footprint_bounded;
    case "sim: faulted campaign falls back sequential under jobs=4"
      test_parallel_dispatch_parity_faulted;
    case "parallel trace passes conformance audit" test_parallel_trace_audits_clean;
    case "window guard: commuting callback cannot schedule control events"
      test_commuting_callback_guard;
    case "window guard: a draw below min_lat fails loudly" test_min_lat_guard;
    case "sim: seeded churn matches its pin" test_sim_pinned;
    case "sim: fault campaign matches its pin" test_sim_pinned_faulted;
    case "wheel trace passes conformance audit" test_wheel_trace_audits_clean;
    case "constant delay: no FIFO floors, byte-identical to the drawn path"
      test_fifo_elision_exact;
  ]
