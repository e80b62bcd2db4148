(* The probe read path: one schedule, one read of every node per instant,
   reductions over the snapshot columns. *)

module Metrics = Gcs.Metrics

let case name f = Alcotest.test_case name `Quick f

(* sim's composed probe — recorder, validity checker, and the guarantees
   monitor with the envelope on — over a view that counts its reads. *)
let test_one_read_per_instant () =
  let n = 12 and horizon = 20. in
  let params = Gcs.Params.make ~n () in
  let cfg =
    Gcs.Sim.config ~params
      ~clocks:(Gcs.Drift.assign params ~horizon ~seed:5 Gcs.Drift.Split_extremes)
      ~delay:(Dsim.Delay.maximal ~bound:params.Gcs.Params.delay_bound)
      ~initial_edges:(Topology.Static.ring n) ()
  in
  let sim = Gcs.Sim.create cfg in
  let engine = Gcs.Sim.engine sim in
  let v = Gcs.Sim.view sim in
  let clock_reads = ref 0 and lmax_reads = ref 0 in
  let view =
    {
      v with
      Metrics.clock_of =
        (fun i ->
          incr clock_reads;
          v.Metrics.clock_of i);
      lmax_of =
        (fun i ->
          incr lmax_reads;
          v.Metrics.lmax_of i);
    }
  in
  let recorder = Metrics.recorder engine ~watch:[ (0, n / 2) ] in
  let checker = Gcs.Invariant.checker ~n ~params () in
  let guarantees =
    Audit.Guarantees.create engine ~params ~check_envelope:true ~faults:[]
  in
  let instants = ref 0 in
  Metrics.every engine view ~every:(horizon /. 200.) ~until:horizon (fun snap ->
      incr instants;
      Metrics.record recorder snap;
      Gcs.Invariant.observe checker snap;
      Audit.Guarantees.observe guarantees snap;
      Alcotest.(check (pair int int))
        (Printf.sprintf "reads after instant %d" !instants)
        (n * !instants, n * !instants)
        (!clock_reads, !lmax_reads));
  Gcs.Sim.run_until sim horizon;
  Alcotest.(check bool) "probed" true (!instants >= 200);
  Alcotest.(check int) "one sample per instant" !instants
    (List.length (Metrics.samples recorder));
  Alcotest.(check bool) "run is valid" true
    (Gcs.Invariant.ok checker && Audit.Report.ok (Audit.Guarantees.report guarantees))

(* Oracle: each snapshot reduction against a plain list computation over
   random columns and edge sets. *)
let prop_reductions_match_lists =
  QCheck.Test.make ~name:"snapshot reductions match list oracles" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let prng = Dsim.Prng.of_int seed in
      let n = 1 + Dsim.Prng.int prng 24 in
      let value () = Dsim.Prng.float_in prng (-100.) 100. in
      let l = Array.init n (fun _ -> value ()) in
      let lmax = Array.init n (fun _ -> value ()) in
      let edges =
        List.init (Dsim.Prng.int prng (2 * n)) (fun _ ->
            (Dsim.Prng.int prng n, Dsim.Prng.int prng n))
        |> List.filter (fun (u, v) -> u <> v)
      in
      let view =
        {
          Metrics.n;
          clock_of = Array.get l;
          lmax_of = Array.get lmax;
          iter_edges = (fun f -> List.iter (fun (u, v) -> f u v) edges);
        }
      in
      let snap = Metrics.snapshot view ~time:1. in
      let ls = Array.to_list l and ms = Array.to_list lmax in
      let max_of = List.fold_left Float.max neg_infinity in
      let min_of = List.fold_left Float.min infinity in
      let skew u v = Float.abs (l.(u) -. l.(v)) in
      let u = Dsim.Prng.int prng n and v = Dsim.Prng.int prng n in
      Metrics.global_skew snap = max_of ls -. min_of ls
      && Metrics.local_skew snap
         = List.fold_left (fun acc (u, v) -> Float.max acc (skew u v)) 0. edges
      && Metrics.edge_skew snap u v = skew u v
      && Metrics.lmax_lag snap = max_of ms -. min_of ms
      && Metrics.clock_lag snap = max_of (0. :: List.map2 ( -. ) ms ls))

(* A faulted run whose view shim makes both the guarantees monitor and
   the validity checker convict: node 1 runs slow and far behind (global
   skew, envelope, min-rate, recovery), node 2 claims Lmax below its own
   clock (dominance), node 4 runs at half rate (min-rate) and node 5's
   Lmax trails (Lemma 6.8 lag). Every crash and restart lands on a probe
   instant, so the rendered report holds the violation order, liveness at
   an op's instant and the left-closed discontinuity window. *)
let faulted_report probes =
  let n = 6 and horizon = 40. in
  let params = Gcs.Params.make ~n () in
  let faults =
    Dsim.Fault.
      [
        Crash { node = 2; at = 20. };
        Restart { node = 2; at = 21.; corrupt = false };
        Crash { node = 4; at = 22. };
        Restart { node = 4; at = 24.; corrupt = true };
      ]
  in
  let clocks = Gcs.Drift.assign params ~horizon ~seed:3 Gcs.Drift.Split_extremes in
  let cfg =
    Gcs.Sim.config ~params ~clocks
      ~delay:(Dsim.Delay.maximal ~bound:params.Gcs.Params.delay_bound)
      ~initial_edges:(Topology.Static.ring n) ~faults ~fault_seed:1 ()
  in
  let sim = Gcs.Sim.create cfg in
  let engine = Gcs.Sim.engine sim in
  let v = Gcs.Sim.view sim in
  let view =
    {
      v with
      Metrics.clock_of =
        (fun i ->
          let l = v.Metrics.clock_of i in
          if i = 1 then (0.2 *. l) -. 50. else if i = 4 then 0.5 *. l else l);
      lmax_of =
        (fun i ->
          if i = 2 then v.Metrics.clock_of i -. 1.
          else if i = 5 then v.Metrics.lmax_of i -. 12.
          else v.Metrics.lmax_of i);
    }
  in
  let g, inv = probes engine view ~params ~faults ~horizon in
  Gcs.Sim.run_until sim horizon;
  Audit.Report.render
    (Audit.Report.merge (Audit.Guarantees.report g) (Audit.Report.of_validity inv))

(* Each monitor on a probe schedule of its own. *)
let two_schedules recovery_bound engine view ~params ~faults ~horizon =
  ( Audit.Guarantees.attach engine view ~params ~check_envelope:true ~faults
      ?recovery_bound ~every:1. ~until:horizon (),
    Gcs.Invariant.attach engine view ~params ~every:1. ~until:horizon ~faults () )

(* Both monitors fed from one schedule, as Audit.Scenario does. *)
let one_schedule engine view ~params ~faults ~horizon =
  let g = Audit.Guarantees.create engine ~params ~check_envelope:true ~faults in
  let inv = Gcs.Invariant.checker ~n:view.Metrics.n ~params ~faults () in
  Metrics.every engine view ~every:1. ~until:horizon (fun snap ->
      Audit.Guarantees.observe g snap;
      Gcs.Invariant.observe inv snap);
  (g, inv)

let test_faulted_report_pinned () =
  (* A short recovery bound brings the "recovery-exceeded" rule inside
     the horizon; the digest was taken before the monitors shared a
     snapshot. *)
  let r = faulted_report (two_schedules (Some 4.)) in
  Alcotest.(check string) "summary" "FAIL: 220 violations (0 trace events, 82 probes)"
    (List.nth (String.split_on_char '\n' r) 220);
  Alcotest.(check string) "report digest" "d26b077e8f78ed94254a9a373f957132"
    (Digest.to_hex (Digest.string r));
  Alcotest.(check string) "one schedule renders what two do"
    (faulted_report (two_schedules None))
    (faulted_report one_schedule)

(* The probe at the horizon: [every = H/200] from time 0 must give 201
   instants, the last exactly at H, for any H — summing the period drifts
   past H and drops it. *)
let test_horizon_probe_kept () =
  let clocks = [| Dsim.Hwclock.perfect; Dsim.Hwclock.perfect |] in
  let view =
    { Metrics.n = 2; clock_of = (fun _ -> 0.); lmax_of = (fun _ -> 0.); iter_edges = ignore }
  in
  let bad = ref [] in
  for k = 0 to 1999 do
    let h = 0.01 *. (10. ** (5. *. float_of_int k /. 1999.)) in
    let engine =
      Dsim.Engine.create ~clocks ~delay:(Dsim.Delay.constant ~bound:1.0 0.5)
        ~timer_label:Gcs.Proto.timer_label ()
    in
    for i = 0 to 1 do
      Dsim.Engine.install engine i (fun _ ->
          {
            Dsim.Engine.on_init = ignore;
            on_discover_add = ignore;
            on_discover_remove = ignore;
            on_receive = (fun _ (_ : Gcs.Proto.message) -> ());
            on_timer = (fun (_ : Gcs.Proto.timer) -> ());
          })
    done;
    let r = Metrics.attach engine view ~every:(h /. 200.) ~until:h () in
    Dsim.Engine.run_until engine h;
    let times = List.map (fun s -> s.Metrics.time) (Metrics.samples r) in
    if List.length times <> 201 || List.nth times (List.length times - 1) <> h then
      bad := h :: !bad
  done;
  Alcotest.(check (list (float 0.))) "horizons that lose or move the last probe" [] !bad

let suite =
  [
    case "one read of every node per instant" test_one_read_per_instant;
    QCheck_alcotest.to_alcotest prop_reductions_match_lists;
    case "faulted report pinned" test_faulted_report_pinned;
    case "probe kept at the horizon" test_horizon_probe_kept;
  ]
