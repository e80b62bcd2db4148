(* Regression pins for the large-n scaling work: the per-event allocation
   budget of the hot path, linear memory growth, the G(n) bound at
   n=1024, and the structural guarantee that timer traffic does not
   accumulate in the event queue. *)

let case name f = Alcotest.test_case name `Quick f

let build_sim ?(n = 64) ?shards ?trace ~horizon () =
  let params = Gcs.Params.make ~n () in
  let edges = Topology.Static.path n in
  let clocks = Gcs.Drift.assign params ~horizon ~seed:1 Gcs.Drift.Split_extremes in
  let delay = Dsim.Delay.maximal ~bound:params.Gcs.Params.delay_bound in
  let cfg = Gcs.Sim.config ?shards ?trace ~params ~clocks ~delay ~initial_edges:edges () in
  Gcs.Sim.create cfg

(* Minor-heap budget with tracing off (counters only, the default).
   Under dune's dev profile, which passes [-opaque], every cross-module
   call (clock reads, queue pushes, trace records) boxes its float
   arguments and results regardless of [@inline] annotations: the n=64
   path reads ~45 words/event and n=1024 ~44. A release build inlines
   most of those and reads 15.68 at n=1024. Most of that is still floats
   boxed across calls (clock reads, queue pushes, trace records), not
   payloads: an experiment that unboxed them took a reading of 14.4 down
   to 4.5; message records and [Lost v] values are the rest. That row
   holds a release ceiling of 17, the reading plus 1.3 words (8 %), and
   is only checked under release. Regressions that reintroduce per-event
   closures, lists or boxed options blow past both (the pre-rework
   engine sat near 90). *)
let test_minor_words_budget () =
  let horizon = 60. in
  List.iter
    (fun (n, limit, release_only) ->
      if Profile.name = "release" || not release_only then begin
        let sim = build_sim ~n ~horizon () in
        Gc.full_major ();
        let m0 = Gc.minor_words () in
        Gcs.Sim.run_until sim horizon;
        let minor = Gc.minor_words () -. m0 in
        let events = Dsim.Engine.events_processed (Gcs.Sim.engine sim) in
        Alcotest.(check bool) "ran" true (events > 1000);
        let per_event = minor /. float_of_int events in
        if per_event > limit then
          Alcotest.failf "n=%d: minor words/event %.2f exceeds budget %.1f (%d events)"
            n per_event limit events
      end)
    [ (64, 60., false); (1024, 17., true) ]

(* The auditor's allocation per record, release only: a clean traced
   n=1024 path run at horizon 60, logged first, then fed entry by entry
   through [Conformance.step]. A step allocates only when a link or its
   ring of pending sends is first built or grows: over 427,675 records it
   reads 0.14 words per record, most of it link set-up. With tuple-keyed
   Hashtbls, a Queue per link rebuilt on every delivery and a record per
   send it read 12.13. The ceiling is 1.0. *)
let test_audit_minor_words () =
  if Profile.name = "release" then begin
    let n = 1024 and horizon = 60. in
    let trace = Dsim.Trace.create ~log_limit:max_int () in
    let sim = build_sim ~n ~trace ~horizon () in
    Gcs.Sim.run_until sim horizon;
    let entries = Dsim.Trace.entries trace in
    let st =
      Audit.Conformance.create
        (Audit.Conformance.of_params (Gcs.Sim.params sim) ~horizon ())
    in
    Gc.full_major ();
    let m0 = Gc.minor_words () in
    List.iter (Audit.Conformance.step st) entries;
    let per_record = (Gc.minor_words () -. m0) /. float_of_int (List.length entries) in
    Alcotest.(check bool) "audit clean" true
      (Audit.Report.ok (Audit.Conformance.finish st));
    if per_record > 1.0 then
      Alcotest.failf "audit: minor words/record %.2f exceeds ceiling 1.0 (%d records)"
        per_record (List.length entries)
  end

(* Promotion ceiling, release only: words promoted to the major heap per
   event on the path at n=4096. An event's garbage should die young; a
   store that keeps each event's allocation alive until the next one
   (a timer value per re-arm, a message per peer per tick) promotes it
   instead, and the heap grows far past the live data. It reads 0.91;
   with a timer value kept per armed label and a message built per peer
   it read 2.97. The ceiling of 1.5 sits between the two. *)
let test_promoted_words_ceiling () =
  if Profile.name = "release" then begin
    let horizon = 60. in
    let sim = build_sim ~n:4096 ~horizon () in
    Gc.full_major ();
    let p0 = (Gc.quick_stat ()).Gc.promoted_words in
    Gcs.Sim.run_until sim horizon;
    let promoted = (Gc.quick_stat ()).Gc.promoted_words -. p0 in
    let events = Dsim.Engine.events_processed (Gcs.Sim.engine sim) in
    let per_event = promoted /. float_of_int events in
    if per_event > 1.5 then
      Alcotest.failf "n=4096: promoted words/event %.3f exceeds ceiling 1.5 (%d events)"
        per_event events
  end

(* Live words per node, release only: an n=16,384 path after set-up
   and its first instant, measured as the live-heap growth across
   [Sim.create] and [run_until 0.01]. Node state is O(degree), and every
   node's handful of heap blocks pays a header and growth slack; this
   pins how many words that takes. It reads 160.2; with six peer
   arrays, two [Estimate.t] registers, option-boxed handlers, FIFO
   floor stores under a constant delay and eager queue columns it read
   226.2. The ceiling is the reading plus 5 %. *)
let test_live_words_per_node () =
  if Profile.name = "release" then begin
    let n = 16_384 in
    Gc.full_major ();
    let w0 = (Gc.stat ()).Gc.live_words in
    let sim = build_sim ~n ~horizon:60. () in
    Gcs.Sim.run_until sim 0.01;
    Gc.full_major ();
    let per_node =
      float_of_int ((Gc.stat ()).Gc.live_words - w0) /. float_of_int n
    in
    ignore (Sys.opaque_identity sim);
    if per_node > 168. then
      Alcotest.failf "n=%d: %.1f live words per node exceeds ceiling 168" n per_node
  end

(* Throughput guard: a generous ns/event ceiling that a healthy dev build
   clears by an order of magnitude but any accidental O(n) scan on the
   per-event path (the failure mode this engine was rebuilt to avoid)
   blows through at n=1024. Wall-clock on shared CI is noisy, hence the
   wide margin — this is a quadratic-regression tripwire, not a benchmark
   (the cost ledger, ledger/README.md, measures for real under --profile
   release). *)
let test_ns_per_event_ceiling () =
  let horizon = 30. in
  let n = 1024 in
  let sim = build_sim ~n ~horizon () in
  let t0 = Unix.gettimeofday () in
  Gcs.Sim.run_until sim horizon;
  let wall = Unix.gettimeofday () -. t0 in
  let events = Dsim.Engine.events_processed (Gcs.Sim.engine sim) in
  Alcotest.(check bool) "ran" true (events > 10_000);
  let ns = wall *. 1e9 /. float_of_int events in
  if ns > 50_000. then
    Alcotest.failf "ns/event %.0f exceeds ceiling 50000 at n=%d (%d events)"
      ns n events

let sim_footprint ?shards n =
  let sim = build_sim ~n ?shards ~horizon:10. () in
  Gcs.Sim.run_until sim 10.;
  Dsim.Engine.footprint_words (Gcs.Sim.engine sim)

(* Engine storage on the full protocol grows as O(n + live edges): the
   path quadruples from 16k to 64k nodes, so the footprint may grow ~4x
   (it reads 4.00); a per-node table sized by n, O(n^2) in all, pushes
   the ratio toward 16. *)
let test_sim_footprint_linear () =
  let ratio = float_of_int (sim_footprint 65_536) /. float_of_int (sim_footprint 16_384) in
  if ratio > 8. then
    Alcotest.failf "sim footprint 16k -> 64k grew %.2fx (must be <= 8, O(n^2) gives ~16)"
      ratio

(* Sharding splits node state, it does not copy it: on 64 shards the
   16k path's footprint stays within 1.6x of one shard's (it reads 1.39;
   the extra is the lanes' window buffers and the per-shard queues and
   wheels). A timer-value table per shard, indexed by label and so about
   n long in every shard whose nodes have far neighbours, read 1.84. *)
let test_sim_footprint_sharded () =
  let one = sim_footprint 16_384 and many = sim_footprint ~shards:64 16_384 in
  let ratio = float_of_int many /. float_of_int one in
  if ratio > 1.6 then
    Alcotest.failf "sim footprint at 16k on 64 shards is %.2fx one shard's (must be <= 1.6)"
      ratio

(* E1 end to end at n=1024: the measured global skew stays under the
   paper's G(n), which is linear in n (it reads 6.0 against 1238.4). *)
let test_global_skew_bound_n1024 () =
  let horizon = 60. in
  let sim = build_sim ~n:1024 ~horizon () in
  let recorder =
    Gcs.Metrics.attach (Gcs.Sim.engine sim) (Gcs.Sim.view sim) ~every:(horizon /. 20.)
      ~until:horizon ()
  in
  Gcs.Sim.run_until sim horizon;
  let skew = Gcs.Metrics.max_global_skew recorder in
  let bound = Gcs.Params.global_skew_bound (Gcs.Sim.params sim) in
  if skew > bound then
    Alcotest.failf "max global skew %.4f exceeds G(n) = %.4f at n=1024" skew bound

(* Timers wait in the wheel, so the event queue holds only deliveries,
   discoveries and callbacks, and sustained timer re-arm traffic must
   leave its depth flat: the stale Lost entries that would pile up
   between a receipt and the old entry's distant deadline never enter
   it. Armed labels are bounded by live protocol state (one Tick plus at
   most one Lost per gamma peer per node), and pending_events by queue
   depth + live timers. *)
let test_bounded_timer_state () =
  let n = 32 in
  let sim = build_sim ~n ~horizon:200. () in
  let engine = Gcs.Sim.engine sim in
  let max_depth_early = ref 0 in
  let max_depth_late = ref 0 in
  let max_pending = ref 0 in
  let max_live = ref 0 in
  let probe cell () =
    cell := max !cell (Dsim.Engine.queue_depth engine);
    max_pending := max !max_pending (Dsim.Engine.pending_events engine);
    max_live := max !max_live (Dsim.Engine.live_timers engine)
  in
  for i = 1 to 40 do
    Dsim.Engine.at engine ~time:(2.5 *. float_of_int i)
      (probe (if i <= 20 then max_depth_early else max_depth_late))
  done;
  Gcs.Sim.run_until sim 200.;
  Alcotest.(check bool) "probes saw traffic" true (!max_depth_early > 0);
  (* One Tick per node plus at most one Lost per gamma peer: on a path
     every node has <= 2 neighbours. *)
  Alcotest.(check bool)
    (Printf.sprintf "live timers %d bounded by 3n" !max_live)
    true
    (!max_live <= 3 * n);
  (* Flat over time: the later half of the run may not out-grow the
     steady state the first half reached. *)
  Alcotest.(check bool)
    (Printf.sprintf "queue depth flat (early max %d, late max %d)"
       !max_depth_early !max_depth_late)
    true
    (!max_depth_late <= !max_depth_early);
  Alcotest.(check bool)
    (Printf.sprintf "pending %d bounded by depth+timers" !max_pending)
    true
    (!max_pending <= !max_depth_early + !max_live)

(* When timers shared the event heap, this execution kept every
   superseded Lost entry queued until its deadline passed, peaking at
   [heap_era_peak] entries. Pin the structural win against that
   recorded value: the wheel's queue depth is a small fraction of it. *)
let heap_era_peak = 264

let test_wheel_relieves_heap () =
  let sim = build_sim ~n:32 ~horizon:80. () in
  let engine = Gcs.Sim.engine sim in
  let peak = ref 0 in
  for i = 1 to 16 do
    Dsim.Engine.at engine ~time:(4.8 *. float_of_int i) (fun () ->
        peak := max !peak (Dsim.Engine.queue_depth engine))
  done;
  Gcs.Sim.run_until sim 80.;
  Alcotest.(check bool)
    (Printf.sprintf "wheel queue depth %d < half of the heap-era %d" !peak
       heap_era_peak)
    true
    (2 * !peak < heap_era_peak)

let suite =
  [
    case "minor words/event within budget (trace off)" test_minor_words_budget;
    case "promoted words/event under ceiling (release)" test_promoted_words_ceiling;
    case "ns/event under quadratic-regression ceiling" test_ns_per_event_ceiling;
    case "sim footprint grows O(n) from 16k to 64k" test_sim_footprint_linear;
    case "sim footprint on 64 shards near one shard's" test_sim_footprint_sharded;
    case "global skew within G(n) at n=1024" test_global_skew_bound_n1024;
    case "timer state bounded under sustained traffic" test_bounded_timer_state;
    case "wheel keeps timers out of the event heap" test_wheel_relieves_heap;
    case "live words per node after set-up (release)" test_live_words_per_node;
    case "audit minor words/record under ceiling (release)" test_audit_minor_words;
  ]
