(* The conformance auditor must flag hand-broken traces — a "broken
   engine" shim emitting out-of-order deliveries, late discoveries,
   deliveries on absent edges, delays beyond T — and must stay silent on
   a well-formed trace. Entries are built directly so each test controls
   exactly what the faulty engine would have recorded. *)

module Trace = Dsim.Trace
module Conformance = Audit.Conformance
module Report = Audit.Report

let params = Gcs.Params.make ~n:4 ()

(* Defaults: T = 1.0, D ~ 1.605, dT ~ 2.053. *)
let t_bound = params.Gcs.Params.delay_bound
let d_bound = params.Gcs.Params.discovery_bound
let dt_bound = Gcs.Params.delta_t params

let cfg ?(check_gaps = true) ?faults horizon =
  Conformance.of_params params ~horizon ~check_gaps ?faults ()

let e ?(a = -1) ?(b = -1) ?(c = -1) time kind = { Trace.time; kind; a; b; c }

let rules report =
  List.map (fun v -> v.Report.rule) report.Report.violations

let has_rule report rule = List.mem rule (rules report)

let check_flags report rule =
  Alcotest.(check bool)
    (Printf.sprintf "flags %s (got: %s)" rule (String.concat ", " (rules report)))
    true (has_rule report rule)

(* A well-formed exchange: edge up at 0, both endpoints discover in
   time, one message each way inside the delay bound. *)
let clean_trace =
  [
    e 0. Trace.Edge_add ~a:0 ~b:1;
    e 0.1 Trace.Discover_add ~a:0 ~b:1 ~c:1;
    e 0.1 Trace.Discover_add ~a:1 ~b:0 ~c:1;
    e 1.0 Trace.Send ~a:0 ~b:1 ~c:1;
    e 1.5 Trace.Deliver ~a:0 ~b:1 ~c:1;
    e 1.6 Trace.Send ~a:1 ~b:0 ~c:1;
    e 1.9 Trace.Deliver ~a:1 ~b:0 ~c:1;
  ]

let test_clean_trace_passes () =
  let report = Conformance.audit (cfg 2.0) clean_trace in
  Alcotest.(check bool)
    (Printf.sprintf "no violations (got: %s)" (String.concat ", " (rules report)))
    true (Report.ok report);
  Alcotest.(check int) "every entry audited" (List.length clean_trace)
    report.Report.events_audited

let test_delay_exceeds_t () =
  let trace =
    [
      e 0. Trace.Edge_add ~a:0 ~b:1;
      e 0.1 Trace.Discover_add ~a:0 ~b:1 ~c:1;
      e 0.1 Trace.Discover_add ~a:1 ~b:0 ~c:1;
      e 1.0 Trace.Send ~a:0 ~b:1 ~c:1;
      e (1.0 +. t_bound +. 0.8) Trace.Deliver ~a:0 ~b:1 ~c:1;
    ]
  in
  check_flags (Conformance.audit (cfg ~check_gaps:false 3.0) trace) "delay-exceeds-T"

(* True FIFO inversion is not directly observable (payload identity is
   not traced), but it always shows up through head-of-epoch matching:
   delivering the young send first pairs the delivery with the old one,
   whose age then breaks the delay bound. *)
let test_out_of_order_delivery () =
  let trace =
    [
      e 0. Trace.Edge_add ~a:0 ~b:1;
      e 0.05 Trace.Discover_add ~a:0 ~b:1 ~c:1;
      e 0.05 Trace.Discover_add ~a:1 ~b:0 ~c:1;
      e 0.1 Trace.Send ~a:0 ~b:1 ~c:1;
      e 1.9 Trace.Send ~a:0 ~b:1 ~c:1;
      (* delivery of the SECOND send overtaking the first *)
      e 2.0 Trace.Deliver ~a:0 ~b:1 ~c:1;
    ]
  in
  check_flags (Conformance.audit (cfg ~check_gaps:false 2.05) trace) "delay-exceeds-T"

let test_phantom_delivery () =
  let trace =
    [
      e 0. Trace.Edge_add ~a:0 ~b:1;
      e 0.1 Trace.Discover_add ~a:0 ~b:1 ~c:1;
      e 0.1 Trace.Discover_add ~a:1 ~b:0 ~c:1;
      e 0.5 Trace.Deliver ~a:0 ~b:1 ~c:1;
    ]
  in
  check_flags (Conformance.audit (cfg ~check_gaps:false 1.0) trace) "deliver-without-send"

let test_deliver_on_absent_edge () =
  let trace =
    [
      e 0. Trace.Edge_add ~a:0 ~b:1;
      e 0.1 Trace.Discover_add ~a:0 ~b:1 ~c:1;
      e 0.1 Trace.Discover_add ~a:1 ~b:0 ~c:1;
      e 1.0 Trace.Send ~a:0 ~b:1 ~c:1;
      e 1.2 Trace.Edge_remove ~a:0 ~b:1;
      (* in-flight message of a removed edge must be dropped, not delivered *)
      e 1.5 Trace.Deliver ~a:0 ~b:1 ~c:1;
    ]
  in
  let report = Conformance.audit (cfg ~check_gaps:false 2.0) trace in
  check_flags report "deliver-on-absent-edge"

let test_deliver_across_epochs () =
  let trace =
    [
      e 0. Trace.Edge_add ~a:0 ~b:1;
      e 0.05 Trace.Discover_add ~a:0 ~b:1 ~c:1;
      e 0.05 Trace.Discover_add ~a:1 ~b:0 ~c:1;
      e 0.5 Trace.Send ~a:0 ~b:1 ~c:1;
      e 0.6 Trace.Edge_remove ~a:0 ~b:1;
      e 0.7 Trace.Edge_add ~a:0 ~b:1;
      e 0.75 Trace.Discover_add ~a:0 ~b:1 ~c:3;
      e 0.75 Trace.Discover_add ~a:1 ~b:0 ~c:3;
      (* stale epoch-1 message surviving a down/up cycle *)
      e 0.9 Trace.Deliver ~a:0 ~b:1 ~c:1;
    ]
  in
  check_flags (Conformance.audit (cfg ~check_gaps:false 1.0) trace) "deliver-across-epochs"

let test_send_on_absent_edge () =
  let trace = [ e 0.5 Trace.Send ~a:0 ~b:1 ~c:1 ] in
  check_flags (Conformance.audit (cfg ~check_gaps:false 1.0) trace) "send-on-absent-edge"

let test_late_discovery () =
  let trace =
    [
      e 0. Trace.Edge_add ~a:0 ~b:1;
      e (d_bound +. 0.5) Trace.Discover_add ~a:0 ~b:1 ~c:1;
    ]
  in
  let report = Conformance.audit (cfg ~check_gaps:false (d_bound +. 1.0)) trace in
  check_flags report "late-discovery";
  (* node 1 never hears of the edge at all *)
  check_flags report "missed-discovery"

let test_missed_discovery () =
  let trace = [ e 0. Trace.Edge_add ~a:0 ~b:1 ] in
  let report = Conformance.audit (cfg ~check_gaps:false (d_bound +. 1.0)) trace in
  check_flags report "missed-discovery";
  Alcotest.(check int) "exactly one violation" 1 (List.length report.Report.violations)

let test_undelivered_within_t () =
  let trace =
    [
      e 0. Trace.Edge_add ~a:0 ~b:1;
      e 0.1 Trace.Discover_add ~a:0 ~b:1 ~c:1;
      e 0.1 Trace.Discover_add ~a:1 ~b:0 ~c:1;
      e 0.2 Trace.Send ~a:0 ~b:1 ~c:1;
      (* delivery window [0.2, 0.2+T] closes well before the horizon *)
    ]
  in
  check_flags (Conformance.audit (cfg ~check_gaps:false 3.0) trace) "undelivered-within-T"

let test_receipt_gap () =
  let gap_start = 0.2 in
  let gap_end = gap_start +. dt_bound +. 0.75 in
  let trace =
    [
      e 0. Trace.Edge_add ~a:0 ~b:1;
      e 0.05 Trace.Discover_add ~a:0 ~b:1 ~c:1;
      e 0.05 Trace.Discover_add ~a:1 ~b:0 ~c:1;
      e gap_start Trace.Send ~a:0 ~b:1 ~c:1;
      e gap_start Trace.Deliver ~a:0 ~b:1 ~c:1;
      e gap_end Trace.Send ~a:0 ~b:1 ~c:1;
      e gap_end Trace.Deliver ~a:0 ~b:1 ~c:1;
    ]
  in
  let report = Conformance.audit (cfg ~check_gaps:true (gap_end +. 0.1)) trace in
  check_flags report "receipt-gap-exceeds-dT";
  (* the same trace audited without gap checking is quiet *)
  let report' = Conformance.audit (cfg ~check_gaps:false (gap_end +. 0.1)) trace in
  Alcotest.(check bool)
    (Printf.sprintf "gap check off => ok (got: %s)" (String.concat ", " (rules report')))
    true (Report.ok report')

(* ----------------------- fault-aware excusals ---------------------- *)

(* A crash/restart on the sender opens a silence the liveness rule would
   normally convict; with the schedule in the config the gap is excused,
   without it the same trace is flagged. *)
let crash_gap_trace =
  [
    e 0. Trace.Edge_add ~a:0 ~b:1;
    e 0.05 Trace.Discover_add ~a:0 ~b:1 ~c:1;
    e 0.05 Trace.Discover_add ~a:1 ~b:0 ~c:1;
    e 0.2 Trace.Send ~a:0 ~b:1 ~c:1;
    e 0.4 Trace.Deliver ~a:0 ~b:1 ~c:1;
    e 2.0 Trace.Fault_crash ~a:0;
    e 5.0 Trace.Fault_restart ~a:0;
    e 5.5 Trace.Send ~a:0 ~b:1 ~c:1;
    e 5.7 Trace.Deliver ~a:0 ~b:1 ~c:1;
  ]

let crash_gap_faults =
  [
    Dsim.Fault.Crash { node = 0; at = 2. };
    Dsim.Fault.Restart { node = 0; at = 5.; corrupt = false };
  ]

let test_crash_excuses_receipt_gap () =
  let report =
    Conformance.audit (cfg ~faults:crash_gap_faults 6.0) crash_gap_trace
  in
  Alcotest.(check bool)
    (Printf.sprintf "crash outage excused (got: %s)" (String.concat ", " (rules report)))
    true (Report.ok report);
  (* The same silence with no schedule in the config is a liveness break. *)
  check_flags (Conformance.audit (cfg 6.0) crash_gap_trace) "receipt-gap-exceeds-dT"

(* A Fault_duplicate record licenses exactly one sendless delivery on its
   directed link — the copy is exempt from FIFO send-matching, but a
   second phantom still convicts. *)
let test_duplicate_excused_from_fifo () =
  let dup_trace =
    [
      e 0. Trace.Edge_add ~a:0 ~b:1;
      e 0.05 Trace.Discover_add ~a:0 ~b:1 ~c:1;
      e 0.05 Trace.Discover_add ~a:1 ~b:0 ~c:1;
      e 0.5 Trace.Send ~a:0 ~b:1 ~c:1;
      e 0.5 Trace.Fault_duplicate ~a:0 ~b:1 ~c:1;
      e 0.9 Trace.Deliver ~a:0 ~b:1 ~c:1;
      e 1.0 Trace.Deliver ~a:0 ~b:1 ~c:1;
    ]
  in
  let report = Conformance.audit (cfg ~check_gaps:false 1.2) dup_trace in
  Alcotest.(check bool)
    (Printf.sprintf "duplicate excused (got: %s)" (String.concat ", " (rules report)))
    true (Report.ok report);
  (* A third delivery exhausts the credit. *)
  let report' =
    Conformance.audit (cfg ~check_gaps:false 1.2)
      (dup_trace @ [ e 1.1 Trace.Deliver ~a:0 ~b:1 ~c:1 ])
  in
  check_flags report' "deliver-without-send"

(* Lost-timer cadence: a fire at the very instant of a delivery (gap = 0)
   is the benign same-instant race, a strictly positive but sub-minimum
   gap is a premature fire. *)
let test_lost_timer_same_instant_clean () =
  let lost_label = 1 in
  (* label = src + 1 *)
  let base =
    [
      e 0. Trace.Edge_add ~a:0 ~b:1;
      e 0.05 Trace.Discover_add ~a:0 ~b:1 ~c:1;
      e 0.05 Trace.Discover_add ~a:1 ~b:0 ~c:1;
      e 0.5 Trace.Send ~a:0 ~b:1 ~c:1;
      e 0.5 Trace.Deliver ~a:0 ~b:1 ~c:1;
    ]
  in
  let same_instant = base @ [ e 0.5 Trace.Timer_fire ~a:1 ~b:lost_label ] in
  let report = Conformance.audit (cfg ~check_gaps:false 1.0) same_instant in
  Alcotest.(check bool)
    (Printf.sprintf "gap = 0 is clean (got: %s)" (String.concat ", " (rules report)))
    true (Report.ok report);
  let premature = base @ [ e 0.8 Trace.Timer_fire ~a:1 ~b:lost_label ] in
  check_flags
    (Conformance.audit (cfg ~check_gaps:false 1.0) premature)
    "premature-lost-timer"

(* A deliberately broken recovery: node 1's clock freezes across its
   crash and never rejoins, so once the recovery window closes the
   guarantees probe must convict with "recovery-exceeded" — and only
   after the window, not during it. *)
let test_broken_recovery_flagged () =
  let p2 = Gcs.Params.make ~n:2 () in
  let faults =
    [
      Dsim.Fault.Crash { node = 1; at = 2. };
      Dsim.Fault.Restart { node = 1; at = 4.; corrupt = false };
    ]
  in
  let clocks = [| Dsim.Hwclock.perfect; Dsim.Hwclock.perfect |] in
  let engine =
    Dsim.Engine.create ~clocks ~delay:(Dsim.Delay.constant ~bound:1.0 0.5)
      ~timer_label:Gcs.Proto.timer_label ()
  in
  for i = 0 to 1 do
    Dsim.Engine.install engine i (fun _ctx ->
        {
          Dsim.Engine.on_init = (fun () -> ());
          on_discover_add = (fun (_ : int) -> ());
          on_discover_remove = (fun _ -> ());
          on_receive = (fun _ (_ : Gcs.Proto.message) -> ());
          on_timer = (fun (_ : Gcs.Proto.timer) -> ());
        })
  done;
  (* The shim: node 0 tracks real time, node 1 is stuck at its crash
     value forever — a recovery that never happens. *)
  let view =
    {
      Gcs.Metrics.n = 2;
      clock_of =
        (fun i -> if i = 0 then Dsim.Engine.now engine else Float.min 2. (Dsim.Engine.now engine));
      lmax_of = (fun _ -> Dsim.Engine.now engine);
      iter_edges = (fun _ -> ());
    }
  in
  let recovery_bound = 10. in
  let mon =
    Audit.Guarantees.attach engine view ~params:p2 ~faults ~recovery_bound ~every:1.
      ~until:40. ()
  in
  Dsim.Engine.run_until engine 40.;
  let report = Audit.Guarantees.report mon in
  check_flags report "recovery-exceeded";
  let window_end = 4. +. recovery_bound in
  Alcotest.(check bool) "silent inside the suspension window" true
    (List.for_all
       (fun v -> v.Report.time > window_end)
       report.Report.violations)

let test_report_merge_and_render () =
  let v t rule = { Report.time = t; rule; detail = "d" } in
  let r1 = { Report.violations = [ v 1. "a"; v 3. "c" ]; events_audited = 10; probes = 2 } in
  let r2 = { Report.violations = [ v 2. "b" ]; events_audited = 5; probes = 1 } in
  let m = Report.merge r1 r2 in
  Alcotest.(check (list string)) "chronological merge" [ "a"; "b"; "c" ] (rules m);
  Alcotest.(check int) "summed events" 15 m.Report.events_audited;
  Alcotest.(check int) "summed probes" 3 m.Report.probes;
  Alcotest.(check bool) "merged not ok" false (Report.ok m);
  Alcotest.(check string) "render is deterministic" (Report.render m) (Report.render m)

(* End-to-end: the real engine, audited through the same pipeline the
   fuzzer uses, produces a clean report. *)
let test_real_engine_is_conformant () =
  match
    Audit.Scenario.of_spec
      "n=6 topo=ring drift=split delay=uniform algo=gradient churn=1 seed=11 horizon=60"
  with
  | Error msg -> Alcotest.failf "spec did not parse: %s" msg
  | Ok s ->
    let report = Audit.Scenario.run s in
    Alcotest.(check bool)
      (Printf.sprintf "engine run audits clean (got: %s)"
         (String.concat ", " (rules report)))
      true (Report.ok report);
    Alcotest.(check bool) "trace was actually replayed" true
      (report.Report.events_audited > 100);
    Alcotest.(check bool) "guarantees were actually probed" true
      (report.Report.probes > 10)

(* ------------------- end-of-run order and node ids ------------------ *)

(* Three edges added out of id order, none discovered, each with one send
   that never lands: the end-of-run violations come in link order, then
   edge order, whatever order the trace touched them in. *)
let test_end_of_run_order () =
  let trace =
    [
      e 0. Trace.Edge_add ~a:3 ~b:2;
      e 0. Trace.Edge_add ~a:1 ~b:0;
      e 0. Trace.Edge_add ~a:1 ~b:2;
      e 0.5 Trace.Send ~a:2 ~b:3 ~c:1;
      e 0.5 Trace.Send ~a:1 ~b:0 ~c:1;
      e 0.5 Trace.Send ~a:0 ~b:1 ~c:1;
    ]
  in
  let report = Conformance.audit (cfg ~check_gaps:false 4.0) trace in
  Alcotest.(check (list (pair string string)))
    "link order, then edge order"
    [
      ("undelivered-within-T", "0->1");
      ("undelivered-within-T", "1->0");
      ("undelivered-within-T", "2->3");
      ("missed-discovery", "{0,1}");
      ("missed-discovery", "{1,2}");
      ("missed-discovery", "{2,3}");
    ]
    (List.map
       (fun v -> (v.Report.rule, List.hd (String.split_on_char ' ' v.Report.detail)))
       report.Report.violations)

let test_node_out_of_range () =
  Alcotest.check_raises "deliver to node n"
    (Invalid_argument "Conformance.step: deliver record names node 4 outside [0, 4)")
    (fun () -> ignore (Conformance.audit (cfg 2.0) [ e 1. Trace.Deliver ~a:0 ~b:4 ~c:1 ]));
  Alcotest.check_raises "edge at a negative id"
    (Invalid_argument "Conformance.step: edge-add record names node -1 outside [0, 4)")
    (fun () -> ignore (Conformance.audit (cfg 2.0) [ e 0. Trace.Edge_add ~a:2 ]))

(* ---------------- differential: against the predecessor ---------------- *)

(* The auditor against its tuple-keyed Hashtbl/Queue predecessor, kept
   verbatim in test/oracle: on traces recorded from small fuzzer
   scenarios (faulted ones included) and on mutations of them, both must
   report the same violations and audit the same number of entries. *)
type mutation =
  | Drop of int
  | Duplicate of int
  | Swap of int  (* with the next entry *)
  | Bump_epoch of int
  | Late_delivery of int
  | Remove_under_send of int

let pp_mutation = function
  | Drop i -> Printf.sprintf "drop %d" i
  | Duplicate i -> Printf.sprintf "duplicate %d" i
  | Swap i -> Printf.sprintf "swap %d" i
  | Bump_epoch i -> Printf.sprintf "bump-epoch %d" i
  | Late_delivery i -> Printf.sprintf "late-delivery %d" i
  | Remove_under_send i -> Printf.sprintf "remove-under-send %d" i

let carries_epoch (x : Trace.entry) =
  match x.kind with
  | Trace.Send | Trace.Deliver | Trace.Drop_in_flight | Trace.Drop_lossy
  | Trace.Discover_add | Trace.Discover_remove ->
    true
  | _ -> false

let is_send (x : Trace.entry) = x.kind = Trace.Send && x.c >= 0

(* The first entry at or after [i] (wrapping) that [ok] accepts. *)
let pick entries i ok =
  let n = Array.length entries in
  let rec go k =
    if k = n then None
    else
      let j = (i + k) mod n in
      if ok entries.(j) then Some j else go (k + 1)
  in
  go 0

let mutate entries m =
  let n = Array.length entries in
  let splice j xs =
    Array.concat
      [ Array.sub entries 0 j; Array.of_list xs; Array.sub entries (j + 1) (n - j - 1) ]
  in
  let replace j x = splice j [ x ] in
  match m with
  | _ when n < 2 -> entries
  | Drop i -> splice (i mod n) []
  | Duplicate i -> splice (i mod n) [ entries.(i mod n); entries.(i mod n) ]
  | Swap i ->
    let j = i mod (n - 1) in
    let a = Array.copy entries in
    a.(j) <- entries.(j + 1);
    a.(j + 1) <- entries.(j);
    a
  | Bump_epoch i -> (
    match pick entries (i mod n) carries_epoch with
    | Some j -> replace j { (entries.(j)) with c = entries.(j).c + 1 }
    | None -> entries)
  | Late_delivery i -> (
    match pick entries (i mod n) (fun x -> x.kind = Trace.Deliver) with
    | Some j -> replace j { (entries.(j)) with time = entries.(j).time +. t_bound +. 0.5 }
    | None -> entries)
  | Remove_under_send i -> (
    match pick entries (i mod n) is_send with
    | Some j ->
      let s = entries.(j) in
      splice j [ s; { s with kind = Trace.Edge_remove; c = -1 } ]
    | None -> entries)

let sorted_violations (r : Report.t) =
  List.sort compare
    (List.map (fun v -> (v.Report.time, v.Report.rule, v.Report.detail)) r.Report.violations)

let gen_case =
  QCheck.Gen.(
    let mutation =
      let* i = int_bound 1_000_000 in
      oneofl
        [ Drop i; Duplicate i; Swap i; Bump_epoch i; Late_delivery i; Remove_under_send i ]
    in
    pair (int_range 0 10_000) (list_size (int_range 0 3) mutation))

(* Every other seed draws a fault schedule too. *)
let scenario seed = Audit.Scenario.generate ~faults:(seed mod 2 = 0) (Dsim.Prng.of_int seed)

let print_case (seed, ms) =
  Printf.sprintf "%s | %s"
    (Audit.Scenario.to_spec (scenario seed))
    (String.concat "; " (List.map pp_mutation ms))

let prop_matches_oracle =
  QCheck.Test.make ~name:"auditor matches its predecessor on mutated traces" ~count:50
    (QCheck.make ~print:print_case gen_case)
    (fun (seed, ms) ->
      let s = scenario seed in
      let entries =
        Array.to_list
          (List.fold_left mutate (Array.of_list (Audit.Scenario.record s)) ms)
      in
      let params = Gcs.Params.make ~n:s.Audit.Scenario.n () in
      let faults = s.Audit.Scenario.faults and horizon = s.Audit.Scenario.horizon in
      let got = Conformance.audit (Conformance.of_params params ~horizon ~faults ()) entries in
      let want =
        Conformance_oracle.audit
          (Conformance_oracle.of_params params ~horizon ~faults ())
          entries
      in
      if got.Report.events_audited <> want.Report.events_audited then
        QCheck.Test.fail_reportf "audited %d entries, oracle %d" got.Report.events_audited
          want.Report.events_audited;
      let show vs =
        String.concat "\n"
          (List.map (fun (t, rule, detail) -> Printf.sprintf "  %.9g %s %s" t rule detail) vs)
      in
      let g = sorted_violations got and w = sorted_violations want in
      if g <> w then QCheck.Test.fail_reportf "auditor:\n%s\noracle:\n%s" (show g) (show w);
      true)

let suite =
  [
    Alcotest.test_case "clean trace passes" `Quick test_clean_trace_passes;
    Alcotest.test_case "delay > T flagged" `Quick test_delay_exceeds_t;
    Alcotest.test_case "out-of-order delivery flagged" `Quick test_out_of_order_delivery;
    Alcotest.test_case "phantom delivery flagged" `Quick test_phantom_delivery;
    Alcotest.test_case "deliver on absent edge flagged" `Quick test_deliver_on_absent_edge;
    Alcotest.test_case "deliver across epochs flagged" `Quick test_deliver_across_epochs;
    Alcotest.test_case "send on absent edge flagged" `Quick test_send_on_absent_edge;
    Alcotest.test_case "late discovery flagged" `Quick test_late_discovery;
    Alcotest.test_case "missed discovery flagged" `Quick test_missed_discovery;
    Alcotest.test_case "undelivered within T flagged" `Quick test_undelivered_within_t;
    Alcotest.test_case "receipt gap > dT flagged" `Quick test_receipt_gap;
    Alcotest.test_case "crash outage excuses receipt gap" `Quick
      test_crash_excuses_receipt_gap;
    Alcotest.test_case "duplicate excused from FIFO matching" `Quick
      test_duplicate_excused_from_fifo;
    Alcotest.test_case "lost-timer same-instant vs premature" `Quick
      test_lost_timer_same_instant_clean;
    Alcotest.test_case "broken recovery flagged after the window" `Quick
      test_broken_recovery_flagged;
    Alcotest.test_case "report merge and render" `Quick test_report_merge_and_render;
    Alcotest.test_case "real engine is conformant" `Quick test_real_engine_is_conformant;
    Alcotest.test_case "end-of-run violations in link, then edge order" `Quick
      test_end_of_run_order;
    Alcotest.test_case "node id outside [0, n) named by record kind" `Quick
      test_node_out_of_range;
    QCheck_alcotest.to_alcotest prop_matches_oracle;
  ]
