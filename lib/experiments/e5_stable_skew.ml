module Table = Analysis.Table

type outcome = {
  n : int;
  b0 : float;
  local : float;   (* max local skew after warmup *)
  global : float;  (* max global skew after warmup *)
  stable_bound : float;
  valid : bool;
}

let scenario ?(drift = Gcs.Drift.Split_extremes) ~n ~b0 () =
  let params = Gcs.Params.make ?b0 ~n () in
  let horizon = Float.max 300. (6. *. float_of_int n) in
  let warmup = horizon /. 3. in
  let clocks = Gcs.Drift.assign params ~horizon ~seed:5 drift in
  let delay = Dsim.Delay.maximal ~bound:params.Gcs.Params.delay_bound in
  let cfg =
    Gcs.Sim.config ~params ~clocks ~delay ~initial_edges:(Topology.Static.path n) ()
  in
  let run = Common.launch cfg ~horizon in
  let samples = Gcs.Metrics.samples run.Common.recorder in
  let late = List.filter (fun s -> s.Gcs.Metrics.time >= warmup) samples in
  let local =
    List.fold_left (fun acc s -> Float.max acc s.Gcs.Metrics.local_skew) 0. late
  in
  let global =
    List.fold_left (fun acc s -> Float.max acc s.Gcs.Metrics.global_skew) 0. late
  in
  {
    n;
    b0 = params.Gcs.Params.b0;
    local;
    global;
    stable_bound = Gcs.Params.stable_local_skew params;
    valid = Gcs.Invariant.ok run.Common.invariants;
  }

let run ~quick =
  let ns = if quick then [ 8; 16; 32 ] else [ 8; 16; 32; 64; 96 ] in
  let n_sweep = List.map (fun n -> scenario ~n ~b0:None ()) ns in
  let table_n =
    Table.create ~title:"Steady-state skew vs n (static path, default B0)"
      ~columns:[ "n"; "local skew"; "global skew"; "stable bound"; "valid" ]
  in
  List.iter
    (fun o ->
      Table.add_row table_n
        [
          Table.Int o.n;
          Table.Float o.local;
          Table.Float o.global;
          Table.Float o.stable_bound;
          Table.Bool o.valid;
        ])
    n_sweep;
  let n_fixed = if quick then 32 else 64 in
  let min_b0 = Gcs.Params.min_b0 (Gcs.Params.make ~n:n_fixed ()) in
  let b0_sweep =
    List.map
      (fun f -> scenario ~drift:(Gcs.Drift.Alternating 25.) ~n:n_fixed ~b0:(Some (f *. min_b0)) ())
      (if quick then [ 1.2; 2.5 ] else [ 1.2; 2.5; 5.0; 10.0 ])
  in
  let table_b0 =
    Table.create
      ~title:(Printf.sprintf "Steady-state local skew vs B0 (path, n=%d)" n_fixed)
      ~columns:[ "B0"; "local skew"; "stable bound B0+2rhoW"; "valid" ]
  in
  List.iter
    (fun o ->
      Table.add_row table_b0
        [
          Table.Float o.b0;
          Table.Float o.local;
          Table.Float o.stable_bound;
          Table.Bool o.valid;
        ])
    b0_sweep;
  let all = n_sweep @ b0_sweep in
  let first = List.hd n_sweep and last = List.nth n_sweep (List.length n_sweep - 1) in
  let checks =
    [
      Common.check ~name:"local skew below stable bound everywhere"
        ~pass:(List.for_all (fun o -> o.local <= o.stable_bound) all)
        "max ratio %.3f"
        (List.fold_left (fun acc o -> Float.max acc (o.local /. o.stable_bound)) 0. all);
      Common.check ~name:"gradient property: local skew does not scale with n"
        ~pass:(last.local <= 3. *. Float.max first.local 1.)
        "local skew n=%d: %.3f vs n=%d: %.3f" first.n first.local last.n last.local;
      Common.check ~name:"global skew grows with n"
        ~pass:(last.global > 1.5 *. first.global)
        "global skew n=%d: %.3f vs n=%d: %.3f" first.n first.global last.n last.global;
      Common.check ~name:"validity in all runs"
        ~pass:(List.for_all (fun o -> o.valid) all)
        "%d runs" (List.length all);
    ]
  in
  {
    Common.id = "E5";
    title = "Stable local skew and the gradient property (Theorem 6.12)";
    tables = [ table_n; table_b0 ];
    checks;
  }
