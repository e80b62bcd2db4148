(* Scenario specs must round-trip, shrinking must be deterministic and
   converge to a fixpoint, and replaying a stored spec must reproduce a
   byte-identical audit verdict. *)

module Scenario = Audit.Scenario
module Fuzz = Audit.Fuzz
module Report = Audit.Report

let scenario_t =
  Alcotest.testable
    (fun fmt s -> Format.pp_print_string fmt (Scenario.to_spec s))
    ( = )

let sample =
  {
    Scenario.n = 8;
    topo = 1;
    drift = 2;
    delay = 2;
    algo = 0;
    churn = true;
    seed = 42;
    horizon = 120.;
    faults = [];
  }

let test_spec_roundtrip () =
  let prng = Dsim.Prng.of_int 99 in
  for _ = 1 to 25 do
    let s = Scenario.generate prng in
    match Scenario.of_spec (Scenario.to_spec s) with
    | Ok s' -> Alcotest.check scenario_t "roundtrip" s s'
    | Error msg -> Alcotest.failf "roundtrip failed on %S: %s" (Scenario.to_spec s) msg
  done;
  (* Same property with generated fault schedules riding along. *)
  let prng = Dsim.Prng.of_int 100 in
  for _ = 1 to 25 do
    let s = Scenario.generate ~faults:true prng in
    match Scenario.of_spec (Scenario.to_spec s) with
    | Ok s' -> Alcotest.check scenario_t "faulted roundtrip" s s'
    | Error msg -> Alcotest.failf "roundtrip failed on %S: %s" (Scenario.to_spec s) msg
  done

(* A spec naming every fault op kind must survive to_spec/of_spec exactly. *)
let test_fault_spec_all_ops_roundtrip () =
  let spec =
    "n=8 topo=ring drift=split delay=uniform algo=gradient churn=0 seed=7 horizon=60 "
    ^ "faults=crash@10:2;restart@20:2!;crash@12:5;restart@18:5;dup@5-25:0>1;"
    ^ "reorder@8-30:3>4;byz@15-22:6"
  in
  match Scenario.of_spec spec with
  | Error msg -> Alcotest.failf "all-op spec did not parse: %s" msg
  | Ok s ->
    Alcotest.(check int) "seven ops" 7 (List.length s.Scenario.faults);
    Alcotest.(check string) "re-rendered spec is byte-identical" spec (Scenario.to_spec s);
    (match Scenario.of_spec (Scenario.to_spec s) with
    | Ok s' -> Alcotest.check scenario_t "second roundtrip" s s'
    | Error msg -> Alcotest.failf "second parse failed: %s" msg)

(* Both replay grammars print floats that read back bit for bit: any
   horizon and any fault time survive to_spec/of_spec, not just the 0.25
   grid the generators draw on. *)
let prop_specs_exact_floats =
  QCheck.Test.make ~name:"specs round-trip arbitrary horizons and fault times" ~count:300
    QCheck.(triple (float_range 1e-3 1e4) (float_range 0. 1e3) (float_range 0. 1e3))
    (fun (horizon, t1, t2) ->
      let a = Float.min t1 t2 and b = Float.max t1 t2 in
      let faults =
        Dsim.Fault.
          [
            Crash { node = 1; at = a };
            Restart { node = 1; at = b; corrupt = true };
            Duplicate { src = 0; dst = 2; from_ = a; until = b };
            Reorder { src = 2; dst = 3; from_ = a; until = b };
            Byzantine { node = 3; from_ = a; until = b };
          ]
      in
      let s = { sample with Scenario.horizon; faults } in
      let m = Mcheck.Spec.make ~n:4 ~horizon ~faults () in
      Scenario.of_spec (Scenario.to_spec s) = Ok s
      && Mcheck.Spec.of_spec (Mcheck.Spec.to_spec m) = Ok m)

let test_spec_errors () =
  let expect_error spec =
    match Scenario.of_spec spec with
    | Ok _ -> Alcotest.failf "expected %S to be rejected" spec
    | Error _ -> ()
  in
  expect_error "";
  expect_error "n=8 topo=ring";
  expect_error "n=8 topo=moebius drift=split delay=uniform algo=gradient churn=1 seed=1 horizon=60";
  expect_error "n=one topo=ring drift=split delay=uniform algo=gradient churn=1 seed=1 horizon=60";
  expect_error "n=8 topo=ring drift=split delay=uniform algo=gradient churn=1 seed=1 horizon=-5";
  expect_error "n=8 topo=ring drift=split delay=uniform algo=gradient churn=1 seed=1 horizon=inf";
  expect_error "n=1 topo=ring drift=split delay=uniform algo=gradient churn=1 seed=1 horizon=60";
  (* A typo'd, repeated or stray key must not replay another scenario. *)
  let ok = "n=8 topo=ring drift=split delay=uniform algo=gradient churn=1 seed=42 horizon=120" in
  expect_error (ok ^ " fault=crash@30:2;restart@45:2!");
  expect_error (ok ^ " seed=43");
  expect_error (ok ^ " stray");
  expect_error "n=8 topo=ring drift=split delay=uniform algo=gradient churn=2 seed=42 horizon=120"

(* Every window end must be finite: an open Byzantine window would make
   the schedule's last time infinite or NaN. *)
let test_fault_windows_finite () =
  List.iter
    (fun spec ->
      match Dsim.Fault.of_spec spec with
      | Error _ -> ()
      | Ok sched -> (
        match Dsim.Fault.validate ~n:4 sched with
        | Ok () -> Alcotest.failf "accepted %S" spec
        | Error _ -> ()))
    [ "byz@1-nan:2"; "byz@1-inf:2"; "dup@1-inf:0>1"; "reorder@nan-2:0>1" ]

let test_generate_deterministic () =
  let draw seed =
    let prng = Dsim.Prng.of_int seed in
    List.init 10 (fun _ -> Scenario.generate prng)
  in
  Alcotest.(check (list scenario_t)) "same seed, same scenarios" (draw 7) (draw 7)

(* Against a synthetic failure predicate the greedy pass must walk the
   documented candidate order to the same fixpoint every time. *)
let test_shrink_converges_deterministically () =
  let fails s = s.Scenario.n >= 6 in
  let big = { sample with Scenario.n = 12; drift = 3; delay = 2; topo = 2 } in
  let expected =
    { big with Scenario.n = 6; churn = false; horizon = 30.; drift = 0; delay = 0; topo = 0 }
  in
  let shrunk = Fuzz.shrink_with ~fails big in
  Alcotest.check scenario_t "minimal spec" expected shrunk;
  Alcotest.check scenario_t "re-shrinking is identical" shrunk (Fuzz.shrink_with ~fails big);
  Alcotest.check scenario_t "fixpoint: shrinking the minimum is a no-op" shrunk
    (Fuzz.shrink_with ~fails shrunk);
  Alcotest.(check bool) "minimum still fails" true (fails shrunk)

let test_shrink_identity_on_pass () =
  let fails _ = false in
  Alcotest.check scenario_t "non-failing scenario is untouched" sample
    (Fuzz.shrink_with ~fails sample)

let test_replay_byte_identical () =
  let spec = "n=7 topo=tree drift=walk delay=uniform algo=flat churn=1 seed=5 horizon=45" in
  match Scenario.of_spec spec with
  | Error msg -> Alcotest.failf "spec did not parse: %s" msg
  | Ok s ->
    let first = Report.render (Scenario.run s) in
    let second = Report.render (Scenario.run s) in
    Alcotest.(check string) "two replays render identically" first second;
    Alcotest.(check bool) "replay is non-trivial" true (String.length first > 0)

let test_faulted_replay_byte_identical () =
  let spec =
    "n=7 topo=tree drift=walk delay=uniform algo=gradient churn=0 seed=5 horizon=45 "
    ^ "faults=crash@8:1;restart@16:1!;dup@4-20:0>2;byz@10-18:3"
  in
  match Scenario.of_spec spec with
  | Error msg -> Alcotest.failf "faulted spec did not parse: %s" msg
  | Ok s ->
    let first = Report.render (Scenario.run s) in
    let second = Report.render (Scenario.run s) in
    Alcotest.(check string) "two faulted replays render identically" first second

(* Dropping the whole schedule is the first shrink candidate; node
   shrinking prunes ops naming removed nodes so the schedule stays valid. *)
let test_shrink_drops_faults_first () =
  let faulted =
    {
      sample with
      Scenario.churn = false;
      n = 10;
      faults =
        [
          Dsim.Fault.Crash { node = 9; at = 10. };
          Dsim.Fault.Restart { node = 9; at = 20.; corrupt = false };
          Dsim.Fault.Byzantine { node = 2; from_ = 5.; until = 15. };
        ];
    }
  in
  let fails_any _ = true in
  let shrunk = Fuzz.shrink_with ~fails:fails_any faulted in
  Alcotest.(check int) "schedule dropped at the fixpoint" 0
    (List.length shrunk.Scenario.faults);
  (* If the failure needs the faults, n-shrinking must keep the schedule
     valid for the reduced node count. *)
  let fails_with_faults s = s.Scenario.faults <> [] in
  let shrunk = Fuzz.shrink_with ~fails:fails_with_faults faulted in
  Alcotest.(check bool) "faults retained when needed" true (shrunk.Scenario.faults <> []);
  (match Dsim.Fault.validate ~n:shrunk.Scenario.n shrunk.Scenario.faults with
  | Ok () -> ()
  | Error m -> Alcotest.failf "shrunk schedule invalid for n=%d: %s" shrunk.Scenario.n m)

let test_fuzz_run_clean () =
  let outcome = Fuzz.run ~seed:3 ~count:5 () in
  Alcotest.(check int) "all scenarios audited" 5 outcome.Fuzz.scenarios_run;
  Alcotest.(check int)
    (Printf.sprintf "no failures (got: %s)"
       (String.concat "; "
          (List.map (fun f -> Scenario.to_spec f.Fuzz.shrunk) outcome.Fuzz.failures)))
    0
    (List.length outcome.Fuzz.failures)

let test_fuzz_run_clean_with_faults () =
  let outcome = Fuzz.run ~faults:true ~seed:3 ~count:5 () in
  Alcotest.(check int) "all scenarios audited" 5 outcome.Fuzz.scenarios_run;
  Alcotest.(check int)
    (Printf.sprintf "no failures (got: %s)"
       (String.concat "; "
          (List.map (fun f -> Scenario.to_spec f.Fuzz.shrunk) outcome.Fuzz.failures)))
    0
    (List.length outcome.Fuzz.failures)

(* The outcome — counts, failure order, shrunk specs, rendered reports —
   must be byte-identical whatever the pool size (`fuzz --jobs N`). The
   synthetic-failure check exercises the failure path without needing a
   scenario that actually breaks the engine. *)
let render_outcome (o : Fuzz.outcome) =
  Format.asprintf "@[<v>%d@,%a@]" o.Fuzz.scenarios_run
    (Format.pp_print_list Fuzz.pp_failure)
    o.Fuzz.failures

let test_fuzz_jobs_invariant () =
  let serial = render_outcome (Fuzz.run ~jobs:1 ~seed:11 ~count:8 ()) in
  let pooled = render_outcome (Fuzz.run ~jobs:4 ~seed:11 ~count:8 ()) in
  Alcotest.(check string) "jobs=4 outcome equals jobs=1" serial pooled

let test_shrink_order_jobs_invariant () =
  (* Same scenario stream, but shrinking happens inside the workers:
     failures must still come back in draw order for every pool size. *)
  let specs_at jobs =
    let prng = Dsim.Prng.of_int 23 in
    let scenarios =
      let rec draw acc k =
        if k = 0 then List.rev acc else draw (Scenario.generate prng :: acc) (k - 1)
      in
      draw [] 6
    in
    Runner.map ~jobs
      (fun s -> Scenario.to_spec (Fuzz.shrink_with ~fails:(fun x -> x.Scenario.n >= 4) s))
      scenarios
  in
  Alcotest.(check (list string)) "shrunk specs in draw order" (specs_at 1) (specs_at 4)

let suite =
  [
    Alcotest.test_case "spec roundtrip" `Quick test_spec_roundtrip;
    Alcotest.test_case "fault spec with every op roundtrips" `Quick
      test_fault_spec_all_ops_roundtrip;
    QCheck_alcotest.to_alcotest prop_specs_exact_floats;
    Alcotest.test_case "spec error cases" `Quick test_spec_errors;
    Alcotest.test_case "fault window ends must be finite" `Quick
      test_fault_windows_finite;
    Alcotest.test_case "generate is deterministic" `Quick test_generate_deterministic;
    Alcotest.test_case "shrink converges deterministically" `Quick
      test_shrink_converges_deterministically;
    Alcotest.test_case "shrink is identity on pass" `Quick test_shrink_identity_on_pass;
    Alcotest.test_case "replay is byte-identical" `Quick test_replay_byte_identical;
    Alcotest.test_case "faulted replay is byte-identical" `Quick
      test_faulted_replay_byte_identical;
    Alcotest.test_case "shrink drops faults first" `Quick test_shrink_drops_faults_first;
    Alcotest.test_case "fuzz run on clean engine" `Quick test_fuzz_run_clean;
    Alcotest.test_case "faulted fuzz run on clean engine" `Quick
      test_fuzz_run_clean_with_faults;
    Alcotest.test_case "fuzz outcome identical across jobs" `Quick
      test_fuzz_jobs_invariant;
    Alcotest.test_case "shrunk failures stay in draw order" `Quick
      test_shrink_order_jobs_invariant;
  ]
