module Table = Analysis.Table

type outcome = {
  pairs : int;
  corrupt : bool;
  topo : string;
  churn : bool;
  last_fault : float;
  recovery : float option;  (* time from the last fault back into G(n) *)
  peak : float;  (* worst global skew from the first fault on *)
  final_global : float;
  valid : bool;
}

(* [pairs] staggered crash/restart pairs on distinct nodes starting at
   [t0]; even-indexed restarts corrupt their state when [corrupt]. *)
let schedule ~n ~pairs ~corrupt ~t0 =
  List.concat
    (List.init pairs (fun k ->
         let node = (1 + (k * (n / Stdlib.max 1 pairs))) mod n in
         let crash_at = t0 +. (6. *. float_of_int k) in
         let restart_at = crash_at +. 15. in
         [
           Dsim.Fault.Crash { node; at = crash_at };
           Dsim.Fault.Restart
             { node; at = restart_at; corrupt = corrupt && k mod 2 = 0 };
         ]))

let scenario ~n ~pairs ~corrupt ~topo ~churn =
  let params = Gcs.Params.make ~n () in
  let horizon = 240. in
  let t0 = 80. in
  let faults = schedule ~n ~pairs ~corrupt ~t0 in
  let clocks = Gcs.Drift.assign params ~horizon ~seed:8 Gcs.Drift.Split_extremes in
  let delay =
    Dsim.Delay.uniform (Dsim.Prng.of_int 61) ~bound:params.Gcs.Params.delay_bound
  in
  let edges =
    match topo with
    | "ring" -> Topology.Static.ring n
    | _ -> Topology.Static.binary_tree n
  in
  let cfg =
    Gcs.Sim.config ~params ~clocks ~delay ~initial_edges:edges ~faults ~fault_seed:9 ()
  in
  let churn_events =
    if churn then
      Topology.Churn.random_churn (Dsim.Prng.of_int 62) ~n ~base:edges ~rate:0.2
        ~horizon
    else []
  in
  let run = Common.launch ~churn:churn_events cfg ~horizon in
  let samples = Gcs.Metrics.samples run.Common.recorder in
  let last_fault =
    match Dsim.Fault.last_time faults with Some t -> t | None -> 0.
  in
  let bound = Gcs.Params.global_skew_bound params in
  {
    pairs;
    corrupt;
    topo;
    churn;
    last_fault;
    recovery = Gcs.Metrics.recovery_time ~after:last_fault ~bound samples;
    peak =
      List.fold_left
        (fun acc s ->
          if s.Gcs.Metrics.time >= t0 then Float.max acc s.Gcs.Metrics.global_skew
          else acc)
        0. samples;
    final_global =
      (match List.rev samples with [] -> 0. | s :: _ -> s.Gcs.Metrics.global_skew);
    valid = Gcs.Invariant.ok run.Common.invariants;
  }

let run ~quick =
  let n = if quick then 12 else 16 in
  let grid =
    if quick then
      [ (0, false, "ring", false); (1, false, "ring", false); (2, true, "ring", true) ]
    else
      [
        (0, false, "ring", false);
        (1, false, "ring", false);
        (2, true, "ring", false);
        (2, true, "tree", false);
        (2, true, "ring", true);
        (3, true, "tree", true);
      ]
  in
  let outcomes =
    List.map
      (fun (pairs, corrupt, topo, churn) -> scenario ~n ~pairs ~corrupt ~topo ~churn)
      grid
  in
  let params = Gcs.Params.make ~n () in
  let bound = Gcs.Params.global_skew_bound params in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Crash/restart campaign (n=%d): recovery time back into G(n)=%.2f" n bound)
      ~columns:
        [ "pairs"; "corrupt"; "topo"; "churn"; "peak skew"; "recovery"; "final skew";
          "valid" ]
  in
  List.iter
    (fun o ->
      Table.add_row table
        [
          Table.Int o.pairs;
          Table.Bool o.corrupt;
          Table.Str o.topo;
          Table.Bool o.churn;
          Table.Float o.peak;
          (match o.recovery with Some r -> Table.Float r | None -> Table.Str "never");
          Table.Float o.final_global;
          Table.Bool o.valid;
        ])
    outcomes;
  let faulted = List.filter (fun o -> o.pairs > 0) outcomes in
  let corrupted = List.filter (fun o -> o.corrupt) outcomes in
  let baseline = List.hd outcomes in
  (* The analytic budget: Lmax re-propagates across the network in
     (n-1)ΔT, then edges re-converge on the paper's stabilization
     horizon. *)
  let budget =
    (float_of_int (n - 1) *. Gcs.Params.delta_t params)
    +. Gcs.Params.stabilize_real params
  in
  let checks =
    [
      Common.check ~name:"baseline needs no recovery"
        ~pass:(baseline.pairs = 0 && baseline.recovery = Some 0.)
        "no faults: the run never leaves G(n)";
      Common.check ~name:"every faulted run recovers"
        ~pass:(List.for_all (fun o -> o.recovery <> None) faulted)
        "global skew re-enters G(n)=%.2f for good after the last fault in all %d runs"
        bound (List.length faulted);
      Common.check ~name:"recovery within the analytic budget"
        ~pass:
          (List.for_all
             (fun o ->
               match o.recovery with None -> false | Some r -> r <= budget +. 5.)
             faulted)
        "worst recovery %.1f vs budget (n-1)dT + stabilize_real = %.1f"
        (List.fold_left
           (fun acc o ->
             match o.recovery with Some r -> Float.max acc r | None -> acc)
           0. faulted)
        budget;
      Common.check ~name:"corruption actually perturbed the run"
        ~pass:(List.for_all (fun o -> o.peak > bound) corrupted)
        "peak post-fault skew exceeds G(n)=%.2f in every corrupting run" bound;
      Common.check ~name:"validity holds around faults"
        ~pass:(List.for_all (fun o -> o.valid) outcomes)
        "fault-aware validity monitor: 0 violations in all %d runs"
        (List.length outcomes);
    ]
  in
  {
    Common.id = "A8";
    title = "Self-stabilization: crash, restart and corrupted state";
    tables = [ table ];
    checks;
  }
