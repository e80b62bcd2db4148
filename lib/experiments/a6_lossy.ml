module Table = Analysis.Table

type outcome = {
  rate : float;
  local : float;
  global : float;
  delivered_fraction : float;
  valid : bool;
}

let scenario ~n ~rate =
  let params = Gcs.Params.make ~n () in
  let horizon = 400. in
  let warmup = 150. in
  let clocks = Gcs.Drift.assign params ~horizon ~seed:4 Gcs.Drift.Split_extremes in
  let base = Dsim.Delay.uniform (Dsim.Prng.of_int 51) ~bound:params.Gcs.Params.delay_bound in
  let delay =
    if rate = 0. then base else Dsim.Delay.lossy (Dsim.Prng.of_int 52) ~rate base
  in
  let trace = Dsim.Trace.create () in
  let cfg =
    Gcs.Sim.config ~params ~clocks ~delay ~trace
      ~initial_edges:(Topology.Static.ring n) ()
  in
  let run = Common.launch cfg ~horizon in
  let late =
    List.filter
      (fun s -> s.Gcs.Metrics.time >= warmup)
      (Gcs.Metrics.samples run.Common.recorder)
  in
  let max_of f = List.fold_left (fun acc s -> Float.max acc (f s)) 0. late in
  let sent = Dsim.Trace.count trace Dsim.Trace.Send in
  let delivered = Dsim.Trace.count trace Dsim.Trace.Deliver in
  {
    rate;
    local = max_of (fun s -> s.Gcs.Metrics.local_skew);
    global = max_of (fun s -> s.Gcs.Metrics.global_skew);
    delivered_fraction = float_of_int delivered /. float_of_int (Stdlib.max 1 sent);
    valid = Gcs.Invariant.ok run.Common.invariants;
  }

let run ~quick =
  let n = if quick then 16 else 32 in
  let rates = if quick then [ 0.; 0.2; 0.5 ] else [ 0.; 0.05; 0.2; 0.5; 0.8 ] in
  let outcomes = List.map (fun rate -> scenario ~n ~rate) rates in
  let table =
    Table.create
      ~title:(Printf.sprintf "Silent message loss (ring n=%d, outside the model)" n)
      ~columns:[ "loss rate"; "delivered"; "steady local skew"; "steady global skew"; "valid" ]
  in
  List.iter
    (fun o ->
      Table.add_row table
        [
          Table.Float o.rate;
          Table.Float o.delivered_fraction;
          Table.Float o.local;
          Table.Float o.global;
          Table.Bool o.valid;
        ])
    outcomes;
  let reliable = List.hd outcomes in
  let worst = List.nth outcomes (List.length outcomes - 1) in
  let moderate = List.nth outcomes 1 in
  let params = Gcs.Params.make ~n () in
  let checks =
    [
      Common.check ~name:"validity is unconditional"
        ~pass:(List.for_all (fun o -> o.valid) outcomes)
        "0 violations at every loss rate up to %.0f%%" (100. *. worst.rate);
      Common.check ~name:"loss actually happened"
        ~pass:(worst.delivered_fraction < 1. -. worst.rate +. 0.1)
        "delivered fraction %.2f at rate %.2f" worst.delivered_fraction worst.rate;
      Common.check ~name:"moderate loss degrades gracefully"
        ~pass:(moderate.local <= 3. *. Float.max reliable.local 0.5)
        "local skew %.3f at %.0f%% loss vs %.3f reliable" moderate.local
        (100. *. moderate.rate) reliable.local;
      Common.check ~name:"even heavy loss stays within the global bound"
        ~pass:(worst.global <= Gcs.Params.global_skew_bound params)
        "global %.2f vs G(n) = %.2f (bound does not assume loss, but the
         periodic re-broadcasts recover it here)" worst.global
        (Gcs.Params.global_skew_bound params);
    ]
  in
  {
    Common.id = "A6";
    title = "Robustness: silent message loss (outside the model)";
    tables = [ table ];
    checks;
  }
