module Engine = Dsim.Engine

let slack = Gcs.Metrics.slack

(* Lemma 6.8: on a connected network the spread of the Lmax estimates is
   at most (1+rho)(n-1)dT — one dT propagation hop per node, each aged by
   at most the fastest clock rate. *)
let lmax_lag_bound params =
  (1. +. params.Gcs.Params.rho)
  *. float_of_int (params.Gcs.Params.n - 1)
  *. Gcs.Params.delta_t params

(* The model explorer runs this between every pair of events, so nothing
   may allocate per probe: the bound is computed once, at the partial
   application to [params], and the spread is a plain column loop. *)
let lmax_lag params =
  let bound = lmax_lag_bound params in
  let limit = bound +. slack bound in
  fun (s : Gcs.Metrics.snapshot) ~alive ->
    let lag = Gcs.Metrics.spread alive s.lmax in
    if lag > limit then
      Some
        {
          Report.time = s.time;
          rule = "lmax-propagation";
          detail = Printf.sprintf "Lmax lag %.9g > (1+rho)(n-1)dT=%.9g" lag bound;
        }
    else None

type t = {
  engine : (Gcs.Proto.message, Gcs.Proto.timer) Engine.t;
  params : Gcs.Params.t;
  check_envelope : bool;
  faults : Dsim.Fault.schedule;
  suspend_from : float;
  suspend_until : float;
  down : Bytes.t; (* per node at the current probe: '\001' if crashed *)
  mutable violations : Report.violation list;  (* newest first *)
  mutable probes : int;
}

let make engine ~params ~check_envelope ~faults ~recovery_bound =
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
  {
    engine;
    params;
    check_envelope;
    faults;
    suspend_from;
    suspend_until;
    down = Bytes.make params.Gcs.Params.n '\000';
    violations = [];
    probes = 0;
  }

let create engine ~params ~check_envelope ~faults =
  make engine ~params ~check_envelope ~faults ~recovery_bound:None

let observe g (s : Gcs.Metrics.snapshot) =
  let time = s.time in
  g.probes <- g.probes + 1;
  if time < g.suspend_from || time > g.suspend_until then begin
    let add rule detail = g.violations <- { Report.time; rule; detail } :: g.violations in
    let recovering = g.faults <> [] && time > g.suspend_until in
    (* Crashed nodes keep stale frozen state that proves nothing about
       the engine. *)
    Dsim.Fault.mark_down g.faults ~at:time g.down;
    let alive i = Bytes.get g.down i = '\000' in
    let g_bound = Gcs.Params.global_skew_bound g.params in
    let skew = Gcs.Metrics.spread alive s.l in
    if skew > g_bound +. slack g_bound then
      if recovering then
        add "recovery-exceeded"
          (Printf.sprintf
             "global skew %.9g > G(n)=%.9g beyond the recovery window (last fault + %.9g)"
             skew g_bound
             (g.suspend_until
             -. Option.value (Dsim.Fault.last_time g.faults) ~default:g.suspend_until))
      else add "global-skew-bound" (Printf.sprintf "global skew %.9g > G(n)=%.9g" skew g_bound);
    if not recovering then begin
      Option.iter (fun v -> g.violations <- v :: g.violations) (lmax_lag g.params s ~alive);
      if g.check_envelope then begin
        (* s(n, age) never falls below the stable bound, so only an edge
           skewed past it can break the envelope. *)
        let floor = Gcs.Params.stable_local_skew g.params in
        let graph = Engine.graph g.engine in
        Dsim.Dyngraph.fold_edges graph
          (fun () u v ->
            let skew = Gcs.Metrics.edge_skew s u v in
            if skew > floor && alive u && alive v then
              match Dsim.Dyngraph.since graph u v with
              | None -> ()
              | Some since ->
                let age = time -. since in
                let bound = Gcs.Params.dynamic_local_skew g.params age in
                if skew > bound +. slack bound then
                  add "local-skew-envelope"
                    (Printf.sprintf "{%d,%d} age %.9g skew %.9g > s(n,age)=%.9g" u v age
                       skew bound))
          ()
      end
    end
  end

let attach engine view ~params ?(check_envelope = false) ?(faults = []) ?recovery_bound
    ~every ~until () =
  let g = make engine ~params ~check_envelope ~faults ~recovery_bound in
  Gcs.Metrics.every engine view ~every ~until (observe g);
  g

let report g =
  { Report.violations = List.rev g.violations; events_audited = 0; probes = g.probes }
