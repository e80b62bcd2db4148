(* Whole-algorithm property test: random small scenarios from the
   fuzzer's space (topology, drift, delays, churn, algorithm) must pass
   the full audit — conformance, the paper's guarantees and validity. *)

let scenario seed = Audit.Scenario.generate (Dsim.Prng.of_int seed)

let spec seed = Audit.Scenario.to_spec (scenario seed)

let prop_validity =
  QCheck.Test.make ~name:"random scenarios: validity + global skew bound" ~count:40
    QCheck.(make ~print:spec Gen.(int_range 0 10_000))
    (fun seed -> Audit.Report.ok (Audit.Scenario.run (scenario seed)))

let suite = [ QCheck_alcotest.to_alcotest prop_validity ]
