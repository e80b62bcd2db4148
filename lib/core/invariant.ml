type violation = { time : float; node : int; kind : string; detail : string }

(* The checker is engine-independent: it sees only probe instants and the
   per-node clock accessors, so the offline monitor ([attach]) and the
   bounded model explorer share one implementation of the rules. *)
type checker = {
  n : int;
  rate_floor : float;
  faults : Dsim.Fault.schedule;
  state : Bytes.t; (* per node at the current probe: [up], [down] or [jumped] *)
  mutable violations : violation list; (* newest first *)
  mutable probes : int;
  prev_clock : float array;
  mutable prev_time : float;
  mutable primed : bool;
}

type monitor = checker

let slack = Metrics.slack

let up, down, jumped = ('\000', '\001', '\002')

let checker ~n ~params ?rate_floor ?(faults = []) () =
  let rate_floor =
    match rate_floor with
    | Some f -> f
    | None -> 1. -. params.Params.rho
  in
  {
    n;
    rate_floor;
    faults;
    state = Bytes.make n up;
    violations = [];
    probes = 0;
    prev_clock = Array.make n 0.;
    prev_time = 0.;
    primed = false;
  }

let add c ~time node kind detail =
  c.violations <- { time; node; kind; detail } :: c.violations

let observe c (s : Metrics.snapshot) =
  let time = s.time in
  c.probes <- c.probes + 1;
  (* Crashed nodes have no state to check; a node that crashed or
     restarted since the previous probe lost (or had corrupted) its
     clock, so the min-rate window does not span the discontinuity. Both
     are worked out once per probe, for the nodes the schedule names.
     The window is left-closed, unlike [Fault.crashed_in]: a probe can
     land at the exact instant of a pending op but before its dispatch
     (the explorer probes before every same-instant event), so an op at
     [prev_time] may postdate the previous sample and must still suspend
     this window. *)
  if c.faults <> [] then begin
    Dsim.Fault.mark_down c.faults ~at:time c.state;
    List.iter
      (function
        | Dsim.Fault.Crash { node; at } | Dsim.Fault.Restart { node; at; _ }
          when at >= c.prev_time && at <= time && Bytes.get c.state node = up ->
          Bytes.set c.state node jumped
        | _ -> ())
      c.faults
  end;
  for i = 0 to c.n - 1 do
    let st = Bytes.get c.state i in
    if st <> down then begin
      let l = Float.Array.get s.l i in
      let lmax = Float.Array.get s.lmax i in
      if lmax < l -. slack l then
        add c ~time i "lmax-dominance" (Printf.sprintf "L=%.9g > Lmax=%.9g" l lmax);
      if c.primed && st = up then begin
        let dt = time -. c.prev_time in
        let dl = l -. c.prev_clock.(i) in
        if dl < (c.rate_floor *. dt) -. slack (Float.abs l +. dt) then
          add c ~time i "min-rate"
            (Printf.sprintf "dL=%.9g over dt=%.9g (floor %.3g)" dl dt c.rate_floor)
      end;
      c.prev_clock.(i) <- l
    end
  done;
  c.prev_time <- time;
  c.primed <- true

let attach engine view ~params ~every ~until ?rate_floor ?(faults = []) () =
  let monitor = checker ~n:view.Metrics.n ~params ?rate_floor ~faults () in
  Metrics.every engine view ~every ~until (observe monitor);
  monitor

let violations monitor = List.rev monitor.violations

let ok monitor = monitor.violations = []

let probes monitor = monitor.probes

let pp_violation fmt v =
  Format.fprintf fmt "t=%.6g node=%d %s: %s" v.time v.node v.kind v.detail
