module Engine = Dsim.Engine

type t = {
  mutable violations : Report.violation list;  (* newest first *)
  mutable probes : int;
}

let slack = Gcs.Invariant.slack

(* Lemma 6.8: on a connected network the spread of the Lmax estimates is
   at most (1+rho)(n-1)dT — one dT propagation hop per node, each aged by
   at most the fastest clock rate. *)
let lmax_lag_bound params =
  (1. +. params.Gcs.Params.rho)
  *. float_of_int (params.Gcs.Params.n - 1)
  *. Gcs.Params.delta_t params

(* The model explorer runs this between every pair of events, so nothing
   may allocate per probe: the bound is computed once, at the partial
   application to [params], and the spread is a plain loop rather than a
   fold over tuples. *)
let lmax_lag params =
  let bound = lmax_lag_bound params in
  let limit = bound +. slack bound in
  fun view ~alive ~time ->
    let lo = ref infinity and hi = ref neg_infinity in
    for i = 0 to view.Gcs.Metrics.n - 1 do
      if alive i then begin
        let m = view.Gcs.Metrics.lmax_of i in
        if m < !lo then lo := m;
        if m > !hi then hi := m
      end
    done;
    let lag = !hi -. !lo in
    if lag > limit then
      Some
        {
          Report.time;
          rule = "lmax-propagation";
          detail = Printf.sprintf "Lmax lag %.9g > (1+rho)(n-1)dT=%.9g" lag bound;
        }
    else None

(* Fold a node statistic over the nodes that are up at [time]; crashed
   nodes keep stale frozen state that proves nothing about the engine. *)
let fold_alive view faults ~time f init =
  let acc = ref init in
  for i = 0 to view.Gcs.Metrics.n - 1 do
    if Dsim.Fault.alive faults ~node:i ~at:time then acc := f !acc i
  done;
  !acc

let probe engine view ~params ~check_envelope ~faults ~suspend_from ~suspend_until mon ()
    =
  let time = Engine.now engine in
  mon.probes <- mon.probes + 1;
  if time < suspend_from || time > suspend_until then begin
    let add rule detail =
      mon.violations <- { Report.time; rule; detail } :: mon.violations
    in
    let recovering = faults <> [] && time > suspend_until in
    let alive i = Dsim.Fault.alive faults ~node:i ~at:time in
    let g_bound = Gcs.Params.global_skew_bound params in
    let g =
      fold_alive view faults ~time
        (fun (lo, hi) i ->
          let l = view.Gcs.Metrics.clock_of i in
          (Float.min lo l, Float.max hi l))
        (infinity, neg_infinity)
      |> fun (lo, hi) -> hi -. lo
    in
    if g > g_bound +. slack g_bound then
      if recovering then
        add "recovery-exceeded"
          (Printf.sprintf
             "global skew %.9g > G(n)=%.9g beyond the recovery window (last fault + %.9g)"
             g g_bound (suspend_until -. (match Dsim.Fault.last_time faults with
                                         | Some l -> l
                                         | None -> suspend_until)))
      else add "global-skew-bound" (Printf.sprintf "global skew %.9g > G(n)=%.9g" g g_bound);
    if not recovering then
      Option.iter
        (fun v -> mon.violations <- v :: mon.violations)
        (lmax_lag params view ~alive ~time);
    if check_envelope then begin
      let graph = Engine.graph engine in
      Dsim.Dyngraph.fold_edges graph
        (fun () u v ->
          if alive u && alive v then
            match Dsim.Dyngraph.since graph u v with
            | None -> ()
            | Some since ->
              let age = time -. since in
              let bound = Gcs.Params.dynamic_local_skew params age in
              let skew = Gcs.Metrics.edge_skew view u v in
              if (not recovering) && skew > bound +. slack bound then
                add "local-skew-envelope"
                  (Printf.sprintf "{%d,%d} age %.9g skew %.9g > s(n,age)=%.9g" u v age
                     skew bound))
        ()
    end
  end

let attach engine view ~params ?(check_envelope = false) ?(faults = []) ?recovery_bound
    ~every ~until () =
  if every <= 0. then invalid_arg "Guarantees.attach: period must be positive";
  let recovery_bound =
    match recovery_bound with
    | Some b -> b
    | None ->
      (* Lmax propagates across the network in (n-1)ΔT real time; blocked
         or corrupted clocks then converge on the paper's stabilization
         horizon. Together this dominates re-synchronization from any
         single crash burst. *)
      let base =
        (float_of_int (params.Gcs.Params.n - 1) *. Gcs.Params.delta_t params)
        +. Gcs.Params.stabilize_real params
      in
      (* Faults that inflate Lmax above every honest clock leave the whole
         network chasing a phantom ceiling; skew only re-enters the
         envelope once the chase ends. While below Lmax the gradient jump
         cap advances a node at most ~B0 per ΔT' round, so the ceiling
         excess is burned off at [B0/ΔT' - (1+rho)] per unit of real time
         (the ceiling itself keeps drifting at up to 1+rho). Bounded
         Byzantine lies add at most 8 B0 of excess; a corrupted restart at
         time t draws registers scaled to the hardware clock, at most
         3(1+rho)t. *)
      let ceiling_excess =
        List.fold_left
          (fun acc op ->
            match op with
            | Dsim.Fault.Byzantine _ ->
              Float.max acc (8. *. params.Gcs.Params.b0)
            | Dsim.Fault.Restart { corrupt = true; at; _ } ->
              Float.max acc (3. *. (1. +. params.Gcs.Params.rho) *. at)
            | _ -> acc)
          0. faults
      in
      if ceiling_excess = 0. then base
      else
        let burn_rate =
          Float.max params.Gcs.Params.rho
            ((params.Gcs.Params.b0 /. Gcs.Params.delta_t' params)
            -. (1. +. params.Gcs.Params.rho))
        in
        base +. (ceiling_excess /. burn_rate)
  in
  (* All probe checks are suspended from the first fault until
     [recovery_bound] after the last: inside the window the guarantees
     simply do not hold (that is what the faults are for). What the probe
     *does* demand is that the run re-enters the legal envelope once the
     window closes — a post-window global-skew excess is reported as
     "recovery-exceeded". Only the global-skew / recovery check stays on
     after the window: lag and envelope bounds assume bounded initial
     conditions that corruption deliberately violates, and their
     re-convergence is exactly the recovery being measured. *)
  let suspend_from, suspend_until =
    match (Dsim.Fault.first_time faults, Dsim.Fault.last_time faults) with
    | Some f, Some l -> (f, l +. recovery_bound)
    | _ -> (infinity, neg_infinity)
  in
  let mon = { violations = []; probes = 0 } in
  let rec schedule time =
    if time <= until then
      Engine.at engine ~time (fun () ->
          probe engine view ~params ~check_envelope ~faults ~suspend_from ~suspend_until
            mon ();
          schedule (time +. every))
  in
  schedule (Engine.now engine);
  mon

let report mon =
  { Report.violations = List.rev mon.violations; events_audited = 0; probes = mon.probes }
