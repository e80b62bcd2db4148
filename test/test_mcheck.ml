(* The bounded model explorer must (a) exhaust tiny clean configurations
   with zero violations, (b) catch every seeded-bug class the offline
   auditor catches — the broken-engine shims ported from test_audit.ml
   are injected between the real engine and the checkers — and (c) hand
   back counterexample specs that replay byte-identically. *)

module Spec = Mcheck.Spec
module Explorer = Mcheck.Explorer
module Report = Audit.Report
module Trace = Dsim.Trace

let rules (report : Report.t) =
  List.map (fun v -> v.Report.rule) report.Report.violations

let check_flags report rule =
  Alcotest.(check bool)
    (Printf.sprintf "flags %s (got: %s)" rule (String.concat ", " (rules report)))
    true
    (List.mem rule (rules report))

(* ------------------------ clean exhaustion ------------------------- *)

(* The acceptance configuration: n = 2 complete graph, 3 delay choices,
   slow/fast drift, tie-break enumeration — the whole choice tree fits
   under the default depth, so the run is a complete proof over the
   discretized adversary. *)
let test_exhausts_n2_clean () =
  let s = Spec.make ~n:2 () in
  let o = Explorer.explore s in
  Alcotest.(check int) "no violations" 0 (List.length o.Explorer.violations);
  Alcotest.(check bool) "exhausted" true o.Explorer.exhausted;
  Alcotest.(check bool) "tree fits under depth" false o.Explorer.truncated;
  Alcotest.(check bool) "visited several traces" true (o.Explorer.stats.traces > 5);
  Alcotest.(check bool) "deduplicated states" true
    (o.Explorer.stats.distinct_states > 10);
  Alcotest.(check bool) "pruning happened" true (o.Explorer.stats.pruned > 0)

let test_exhausts_n2_churn_and_faults () =
  List.iter
    (fun s ->
      let o = Explorer.explore ~max_violations:1 s in
      Alcotest.(check int)
        (Printf.sprintf "no violations under %s" (Spec.to_spec s))
        0
        (List.length o.Explorer.violations))
    [
      Spec.make ~n:2 ~depth:8 ~horizon:3. ~churn:true ();
      Spec.make ~n:2 ~depth:8 ~horizon:3.
        ~faults:
          [
            Dsim.Fault.Crash { node = 1; at = 1. };
            Dsim.Fault.Restart { node = 1; at = 2.; corrupt = false };
          ]
        ();
    ]

let test_deepening_reaches_verdict () =
  let levels = Explorer.explore_deepening (Spec.make ~n:2 ~depth:16 ()) in
  Alcotest.(check bool) "at least one level" true (levels <> []);
  let last = List.nth levels (List.length levels - 1) in
  Alcotest.(check bool) "final level exhausted" true last.Explorer.outcome.exhausted;
  Alcotest.(check int) "final level clean" 0
    (List.length last.Explorer.outcome.violations);
  (* depths double: each level must explore no shallower than the previous *)
  let ds = List.map (fun (l : Explorer.level) -> l.Explorer.at_depth) levels in
  Alcotest.(check bool) "depths increase" true (List.sort compare ds = ds)

(* ------------------- seeded-bug shims (test_audit) ------------------ *)

(* Each shim presents a specific broken engine to the checkers. The
   explorer must catch it at n = 2 within a shallow depth AND the
   counterexample spec it prints must replay byte-identically — the
   whole point of choice-tape determinism. *)
let explore_catches ?entry_shim ?view_shim rule =
  let s = Spec.make ~n:2 ~depth:8 ~horizon:3. () in
  let o = Explorer.explore ?entry_shim ?view_shim ~max_violations:1 s in
  match o.Explorer.violations with
  | [] -> Alcotest.failf "explorer missed the seeded %s bug" rule
  | { Explorer.spec; report } :: _ ->
    check_flags report rule;
    let r1, c1 = Explorer.replay ?entry_shim ?view_shim spec in
    let r2, c2 = Explorer.replay ?entry_shim ?view_shim spec in
    Alcotest.(check string) "trace CSV replays byte-identically" c1 c2;
    Alcotest.(check string) "report renders byte-identically" (Report.render r1)
      (Report.render r2);
    check_flags r1 rule

(* Late delivery: every Deliver is reported 2T after it happened, so the
   implied delay always exceeds the bound (test_audit's delay shim). *)
let test_catches_late_delivery () =
  explore_catches
    ~entry_shim:(fun e ->
      [ (match e.Trace.kind with
        | Trace.Deliver -> { e with Trace.time = e.Trace.time +. 2. }
        | _ -> e);
      ])
    "delay-exceeds-T"

(* FIFO breakage: the engine claims each message twice; the second copy
   matches no outstanding send (test_audit's deliver-without-send). *)
let test_catches_fifo_violation () =
  explore_catches
    ~entry_shim:(fun e ->
      match e.Trace.kind with Trace.Deliver -> [ e; e ] | _ -> [ e ])
    "deliver-without-send"

(* Discovery loss: the engine never reports edge discoveries, breaking
   the discovery-within-D obligation (end-of-run check). *)
let test_catches_missed_discovery () =
  explore_catches
    ~entry_shim:(fun e ->
      match e.Trace.kind with Trace.Discover_add -> [] | _ -> [ e ])
    "missed-discovery"

(* Legality breach: the algorithm's max estimate underruns its own
   logical clock (test_audit's broken-recovery flavor, seen through the
   validity monitor instead of the trace). *)
let test_catches_legality_breach () =
  explore_catches
    ~view_shim:(fun v ->
      { v with Gcs.Metrics.lmax_of = (fun i -> v.Gcs.Metrics.clock_of i -. 1.) })
    "validity-lmax-dominance"

(* Pinned counterexample: the spec the explorer printed for the legality
   shim when this test was written. Replaying it must keep flagging the
   bug and stay byte-stable — if canonicalization or engine scheduling
   changes the choice tree, this fails loudly. *)
let pinned_cex = "n=2 delays=3 drift=sf horizon=2 depth=6 tie=1 churn=0 choices=0.1.0.0.0.0"

let test_pinned_cex_replays () =
  let spec =
    match Spec.of_spec pinned_cex with
    | Ok s -> s
    | Error m -> Alcotest.failf "pinned spec no longer parses: %s" m
  in
  let view_shim v =
    { v with Gcs.Metrics.lmax_of = (fun i -> v.Gcs.Metrics.clock_of i -. 1.) }
  in
  let r1, c1 = Explorer.replay ~view_shim spec in
  let r2, c2 = Explorer.replay ~view_shim spec in
  check_flags r1 "validity-lmax-dominance";
  Alcotest.(check string) "byte-identical CSV" c1 c2;
  Alcotest.(check string) "byte-identical report" (Report.render r1)
    (Report.render r2);
  (* and the same branch on the unbroken engine is clean *)
  let clean, _ = Explorer.replay spec in
  Alcotest.(check bool)
    (Printf.sprintf "clean without the shim (got: %s)"
       (String.concat ", " (rules clean)))
    true (Report.ok clean)

(* A churned, faulted replay's CSV and report, pinned: the CSV is built
   by the trace consumer, so it must hold every record from the initial
   topology on, and the conformance checker fed by the same consumer must
   audit all of them. *)
let test_replay_csv_pinned () =
  let spec =
    Spec.make ~n:3 ~churn:true
      ~faults:
        [
          Dsim.Fault.Crash { node = 2; at = 1. };
          Dsim.Fault.Restart { node = 2; at = 2.; corrupt = false };
        ]
      ~choices:[ 1; 2; 0; 1; 2 ] ()
  in
  let r, csv = Explorer.replay spec in
  Alcotest.(check string) "CSV digest" "7eda5c7496dd9344cb6fed1f68a09e0a"
    (Digest.to_hex (Digest.string csv));
  Alcotest.(check string) "report" "PASS: 0 violations (88 trace events, 58 probes)"
    (Report.render r)

let test_shrink_keeps_failure () =
  let view_shim v =
    { v with Gcs.Metrics.lmax_of = (fun i -> v.Gcs.Metrics.clock_of i -. 1.) }
  in
  let s = Spec.make ~n:2 ~depth:8 ~horizon:4. () in
  let o = Explorer.explore ~view_shim ~max_violations:1 s in
  match o.Explorer.violations with
  | [] -> Alcotest.fail "no counterexample to shrink"
  | { Explorer.spec; _ } :: _ ->
    let shrunk = Explorer.shrink ~view_shim spec in
    let r, _ = Explorer.replay ~view_shim shrunk in
    Alcotest.(check bool) "shrunk spec still fails" false (Report.ok r);
    Alcotest.(check bool) "no larger than the original" true
      (List.length shrunk.Spec.choices <= List.length spec.Spec.choices
      && shrunk.Spec.horizon <= spec.Spec.horizon)

(* --------------------- incremental == batch ------------------------ *)

let small_sim ?(n = 3) ?(shards = 1) ?delay () =
  let params = Gcs.Params.make ~n () in
  let rho = params.Gcs.Params.rho in
  let clocks =
    Array.init n (fun i ->
        if i land 1 = 0 then Dsim.Hwclock.fastest ~rho else Dsim.Hwclock.slowest ~rho)
  in
  let delay =
    match delay with
    | Some d -> d
    | None -> Dsim.Delay.maximal ~bound:params.Gcs.Params.delay_bound
  in
  let trace = Trace.create ~log_limit:200_000 () in
  let cfg =
    Gcs.Sim.config ~algo:Gcs.Sim.Gradient ~shards ~params ~clocks ~delay
      ~trace
      ~initial_edges:(List.init (n - 1) (fun i -> (i, i + 1)))
      ()
  in
  (Gcs.Sim.create cfg, trace, params)

let test_incremental_matches_batch () =
  let sim, trace, params = small_sim () in
  Gcs.Sim.run_until sim 6.;
  let entries = Trace.entries trace in
  Alcotest.(check bool) "trace is non-trivial" true (List.length entries > 20);
  let cfg = Audit.Conformance.of_params params ~horizon:6. () in
  let batch = Audit.Conformance.audit cfg entries in
  let st = Audit.Conformance.create cfg in
  List.iter
    (fun e ->
      Audit.Conformance.step st e;
      ignore (Audit.Conformance.violation_count st))
    entries;
  let incremental = Audit.Conformance.finish st in
  Alcotest.(check string) "same report" (Report.render batch)
    (Report.render incremental)

(* ------------------------ tie-break hook --------------------------- *)

let test_tie_break_identity_hook_is_noop () =
  let run hook =
    let sim, trace, _ = small_sim () in
    Option.iter (fun h -> Dsim.Engine.set_tie_break (Gcs.Sim.engine sim) (Some h)) hook;
    Gcs.Sim.run_until sim 8.;
    Trace.to_csv trace
  in
  let groups = ref 0 in
  let baseline = run None in
  let hooked =
    run
      (Some
         (fun k ->
           if k > 1 then incr groups;
           0))
  in
  Alcotest.(check string) "always-0 hook reproduces default order" baseline hooked;
  Alcotest.(check bool) "hook saw same-instant groups" true (!groups > 0)

let test_tie_break_out_of_range_raises () =
  let sim, _, _ = small_sim () in
  Dsim.Engine.set_tie_break (Gcs.Sim.engine sim) (Some (fun k -> k));
  Alcotest.check_raises "out-of-range choice"
    (Invalid_argument "Engine tie-break hook returned an out-of-range choice")
    (fun () -> Gcs.Sim.run_until sim 4.)

let test_tie_break_rejects_shards () =
  let sim, _, _ = small_sim ~n:4 ~shards:2 () in
  Alcotest.check_raises "sharded engine"
    (Invalid_argument "Engine.set_tie_break: the hook requires a single shard")
    (fun () -> Dsim.Engine.set_tie_break (Gcs.Sim.engine sim) (Some (fun _ -> 0)))

(* A delivery to node 1 and node 1's wheel timer both fall due at t=0.5
   (the send is ranked first). The hook must see them as one group of
   two, and whichever index it picks dispatches first. *)
let test_tie_break_spans_queue_and_wheel () =
  let run choice =
    let trace = Trace.create ~log_limit:1000 () in
    let engine =
      Dsim.Engine.create
        ~clocks:[| Dsim.Hwclock.perfect; Dsim.Hwclock.perfect |]
        ~delay:(Dsim.Delay.constant ~bound:1. 0.5)
        ~initial_edges:[ (0, 1) ] ~trace ~timer_label:(fun () -> 0) ()
    in
    for i = 0 to 1 do
      Dsim.Engine.install engine i (fun ctx ->
          {
            Dsim.Engine.on_init =
              (fun () ->
                if i = 0 then Dsim.Engine.send ctx ~dst:1 "m"
                else Dsim.Engine.set_timer ctx ~after:0.5 ());
            on_discover_add = ignore;
            on_discover_remove = ignore;
            on_receive = (fun _ _ -> ());
            on_timer = ignore;
          })
    done;
    let groups = ref [] in
    Dsim.Engine.set_tie_break engine
      (Some
         (fun k ->
           if Dsim.Engine.now engine = 0.5 then begin
             groups := k :: !groups;
             if k = 2 then choice else 0
           end
           else 0));
    Dsim.Engine.run_until engine 1.;
    let order =
      List.filter_map
        (fun e ->
          match e.Trace.kind with
          | (Trace.Deliver | Trace.Timer_fire) as k when e.Trace.time = 0.5 ->
            Some (Trace.kind_to_string k)
          | _ -> None)
        (Trace.entries trace)
    in
    (List.rev !groups, order)
  in
  let deliver = Trace.kind_to_string Trace.Deliver
  and fire = Trace.kind_to_string Trace.Timer_fire in
  let groups, order = run 0 in
  Alcotest.(check (list int)) "one group of two, then the rest" [ 2; 1 ] groups;
  Alcotest.(check (list string)) "choice 0: delivery first" [ deliver; fire ] order;
  let _, order = run 1 in
  Alcotest.(check (list string)) "choice 1: timer first" [ fire; deliver ] order

(* The hook's re-push must carry each entry's payload back with it. Two
   deliveries with distinct payloads to different nodes and a callback
   share t=0.5; a hook that always picks the last index dispatches them
   in reverse, each after a gather and re-push of the whole group. *)
let test_tie_break_keeps_payloads () =
  let engine =
    Dsim.Engine.create
      ~clocks:(Array.make 3 Dsim.Hwclock.perfect)
      ~delay:(Dsim.Delay.constant ~bound:1. 0.5)
      ~initial_edges:[ (0, 1); (0, 2) ] ~timer_label:(fun () -> 0) ()
  in
  let got = Array.make 3 [] in
  for i = 0 to 2 do
    Dsim.Engine.install engine i (fun ctx ->
        {
          Dsim.Engine.on_init =
            (fun () ->
              if i = 0 then begin
                Dsim.Engine.send ctx ~dst:1 "for-1";
                Dsim.Engine.send ctx ~dst:2 "for-2"
              end);
          on_discover_add = ignore;
          on_discover_remove = ignore;
          on_receive = (fun src msg -> got.(i) <- (src, msg) :: got.(i));
          on_timer = ignore;
        })
  done;
  let calls = ref 0 in
  Dsim.Engine.at engine ~time:0.5 (fun () -> incr calls);
  let groups = ref [] in
  Dsim.Engine.set_tie_break engine
    (Some
       (fun k ->
         if Dsim.Engine.now engine = 0.5 then groups := k :: !groups;
         k - 1));
  Dsim.Engine.run_until engine 1.;
  Alcotest.(check (list int)) "one group of three, shrinking" [ 3; 2; 1 ]
    (List.rev !groups);
  Alcotest.(check (list (pair int string))) "node 1 got its own payload"
    [ (0, "for-1") ] got.(1);
  Alcotest.(check (list (pair int string))) "node 2 got its own payload"
    [ (0, "for-2") ] got.(2);
  Alcotest.(check int) "callback ran exactly once" 1 !calls

(* ------------------------ clamp regression ------------------------- *)

(* A delay policy drawing outside [0, T] is clamped AND reported: one
   Delay_clamped record per clamped draw. The clamped execution itself
   stays legal — the auditor must not flag it. *)
let test_out_of_range_delay_draw_traced () =
  let params = Gcs.Params.make ~n:2 () in
  let calls = ref 0 in
  let delay =
    Dsim.Delay.directed ~bound:params.Gcs.Params.delay_bound
      (fun ~src:_ ~dst:_ ~now:_ ->
        incr calls;
        if !calls land 1 = 1 then -3. else 9.)
  in
  let sim, trace, _ = small_sim ~n:2 ~delay () in
  Gcs.Sim.run_until sim 4.;
  let sends = Trace.count trace Trace.Send in
  Alcotest.(check bool) "messages were sent" true (sends > 0);
  Alcotest.(check int) "every draw was clamped and traced" sends
    (Trace.count trace Trace.Delay_clamped);
  let report =
    Audit.Conformance.audit
      (Audit.Conformance.of_params params ~horizon:4. ())
      (Trace.entries trace)
  in
  Alcotest.(check bool)
    (Printf.sprintf "clamped delays stay within the model (got: %s)"
       (String.concat ", " (rules report)))
    true (Report.ok report)

(* --------------------------- spec format --------------------------- *)

let test_spec_round_trip () =
  List.iter
    (fun s ->
      match Spec.of_spec (Spec.to_spec s) with
      | Ok s' ->
        Alcotest.(check string)
          (Printf.sprintf "round-trips (%s)" (Spec.to_spec s))
          (Spec.to_spec s) (Spec.to_spec s');
        Alcotest.(check bool) "structurally equal" true (s = s')
      | Error m -> Alcotest.failf "failed to parse own spec: %s" m)
    [
      Spec.make ~n:2 ();
      Spec.make ~n:3 ~delays:1 ~drift:"nnn" ~horizon:2.5 ~depth:7 ~tie:false
        ~choices:[ 0; 2; 1 ] ();
      Spec.make ~n:3 ~churn:true
        ~faults:
          [
            Dsim.Fault.Crash { node = 2; at = 1. };
            Dsim.Fault.Restart { node = 2; at = 2.; corrupt = false };
          ]
        ();
    ]

let test_spec_rejects_garbage () =
  List.iter
    (fun bad ->
      match Spec.of_spec bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [
      "";
      "n=1 delays=3 drift=s horizon=4 depth=2 tie=1 churn=0 choices=-";
      "n=2 delays=3 drift=xy horizon=4 depth=2 tie=1 churn=0 choices=-";
      "n=2 delays=3 drift=sf horizon=4 depth=2 tie=1 churn=0 choices=0.-1";
      "n=2 delays=3 drift=sf horizon=4 depth=2 tie=1 churn=0";
      "n=2 delays=3 drift=sf horizon=4 depth=2 tie=1 churn=0 choices=- fault=crash@1:1";
      "n=2 delays=3 drift=sf horizon=4 depth=2 depth=3 tie=1 churn=0 choices=-";
      "n=2 delays=3 drift=sf horizon=4 depth=2 tie=2 churn=0 choices=-";
      "n=2 delays=3 drift=sf horizon=4 depth=2 tie=1 churn=5 choices=-";
      "n=2 delays=3 drift=sf horizon=inf depth=2 tie=1 churn=0 choices=-";
    ]

(* A non-finite horizon would run forever or explore nothing. *)
let test_spec_rejects_non_finite_horizon () =
  let s = Spec.make ~n:2 () in
  List.iter
    (fun horizon ->
      match Spec.validate { s with Spec.horizon } with
      | Ok () -> Alcotest.failf "accepted horizon %g" horizon
      | Error _ -> ())
    [ nan; infinity ]

let test_replay_diverged_is_detected () =
  (* the first choice group at t=0 has 2 options; forcing option 7 there
     cannot describe any execution of this configuration *)
  let s = Spec.make ~n:2 ~choices:[ 7 ] () in
  try
    ignore (Explorer.replay s);
    Alcotest.fail "out-of-range tape accepted"
  with Explorer.Replay_diverged _ -> ()

let test_roots_grid () =
  Alcotest.(check int) "2^n drift assignments" 4
    (List.length (Explorer.roots ~n:2 ()));
  Alcotest.(check int) "fault grid doubles" 8
    (List.length (Explorer.roots ~n:2 ~fault_grid:true ()));
  List.iter
    (fun s ->
      match Spec.validate s with
      | Ok () -> ()
      | Error m -> Alcotest.failf "invalid root %s: %s" (Spec.to_spec s) m)
    (Explorer.roots ~n:3 ~fault_grid:true ())

(* ------------------------- TLA+ export ----------------------------- *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_tla_export_shape () =
  let s = Spec.make ~n:2 ~depth:6 ~horizon:2. () in
  let samples = Explorer.samples s in
  Alcotest.(check bool) "collected samples" true (List.length samples > 3);
  let m = Mcheck.Tla.export ~module_name:"McheckTrace_test" s samples in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "module contains %S" needle) true
        (contains ~needle m))
    [
      "MODULE McheckTrace_test"; "Trace == <<"; "SampleOk(a, b)";
      "StepOk"; "RATE_CHECK == TRUE"; "EXTENDS Integers, Sequences";
    ];
  (* deterministic: exporting twice is byte-identical *)
  Alcotest.(check string) "stable output" m
    (Mcheck.Tla.export ~module_name:"McheckTrace_test" s samples)

let suite =
  [
    Alcotest.test_case "exhausts clean n=2 configuration" `Quick
      test_exhausts_n2_clean;
    Alcotest.test_case "clean under churn and faults" `Quick
      test_exhausts_n2_churn_and_faults;
    Alcotest.test_case "iterative deepening reaches a verdict" `Quick
      test_deepening_reaches_verdict;
    Alcotest.test_case "catches late delivery (shim)" `Quick
      test_catches_late_delivery;
    Alcotest.test_case "catches FIFO violation (shim)" `Quick
      test_catches_fifo_violation;
    Alcotest.test_case "catches missed discovery (shim)" `Quick
      test_catches_missed_discovery;
    Alcotest.test_case "catches legality breach (shim)" `Quick
      test_catches_legality_breach;
    Alcotest.test_case "pinned counterexample replays byte-identically" `Quick
      test_pinned_cex_replays;
    Alcotest.test_case "replay CSV and report match their pins" `Quick
      test_replay_csv_pinned;
    Alcotest.test_case "shrinking preserves the failure" `Quick
      test_shrink_keeps_failure;
    Alcotest.test_case "incremental audit equals batch audit" `Quick
      test_incremental_matches_batch;
    Alcotest.test_case "identity tie-break hook is a no-op" `Quick
      test_tie_break_identity_hook_is_noop;
    Alcotest.test_case "out-of-range tie-break choice raises" `Quick
      test_tie_break_out_of_range_raises;
    Alcotest.test_case "tie-break hook rejects shards" `Quick
      test_tie_break_rejects_shards;
    Alcotest.test_case "tie-break group spans queue and wheel" `Quick
      test_tie_break_spans_queue_and_wheel;
    Alcotest.test_case "tie-break re-push keeps payloads" `Quick
      test_tie_break_keeps_payloads;
    Alcotest.test_case "out-of-range delay draws are clamped and traced" `Quick
      test_out_of_range_delay_draw_traced;
    Alcotest.test_case "spec round-trips" `Quick test_spec_round_trip;
    Alcotest.test_case "spec rejects garbage" `Quick test_spec_rejects_garbage;
    Alcotest.test_case "spec rejects a non-finite horizon" `Quick
      test_spec_rejects_non_finite_horizon;
    Alcotest.test_case "replay divergence is detected" `Quick
      test_replay_diverged_is_detected;
    Alcotest.test_case "root grid enumerates drift x faults" `Quick
      test_roots_grid;
    Alcotest.test_case "TLA export is well-formed and stable" `Quick
      test_tla_export_shape;
  ]
