module Engine = Dsim.Engine
module Int_set = Set.Make (Int)

type t = {
  ctx : Proto.ctx;
  params : Params.t;
  mutable upsilon : Int_set.t;
  l : Estimate.t;
  lmax : Estimate.t;
  mutable discrete_jumps : int;
  mutable messages_sent : int;
}

let create params ctx =
  {
    ctx;
    params;
    upsilon = Int_set.empty;
    l = Estimate.create ~value:0. ~anchor:0.;
    lmax = Estimate.create ~value:0. ~anchor:0.;
    discrete_jumps = 0;
    messages_sent = 0;
  }

let hardware_clock t = Engine.hardware_clock t.ctx

let id t = Engine.node_id t.ctx

let logical_clock t = Estimate.get t.l ~at:(hardware_clock t)

let max_estimate t = Estimate.get t.lmax ~at:(hardware_clock t)

let adjust_clock t =
  let h = hardware_clock t in
  if Estimate.raise_to t.l ~at:h (Estimate.get t.lmax ~at:h) then
    t.discrete_jumps <- t.discrete_jumps + 1

let current_update t =
  let h = hardware_clock t in
  { Proto.l = Estimate.get t.l ~at:h; lmax = Estimate.get t.lmax ~at:h }

let send_update t v msg =
  t.messages_sent <- t.messages_sent + 1;
  Engine.send t.ctx ~dst:v msg

(* Fault-injection restart: same contract as Node.restart — forget the
   neighbor set, reset (or corrupt) the clock registers, re-arm the tick. *)
let restart t ~corrupt =
  t.upsilon <- Int_set.empty;
  let h = hardware_clock t in
  (match corrupt with
  | None ->
    Estimate.set t.l ~at:h 0.;
    Estimate.set t.lmax ~at:h 0.
  | Some prng ->
    let scale = Float.max 1. (2. *. h) in
    let l_val = Dsim.Prng.float prng scale in
    let lmax_val = l_val +. Dsim.Prng.float prng (0.5 *. scale) in
    Estimate.set t.l ~at:h l_val;
    Estimate.set t.lmax ~at:h lmax_val);
  Engine.set_timer t.ctx ~after:t.params.Params.delta_h Proto.Tick

let handlers t =
  Engine.on_restart t.ctx (restart t);
  {
    Engine.on_init = (fun () -> Engine.set_timer t.ctx ~after:t.params.Params.delta_h Proto.Tick);
    on_discover_add =
      (fun v ->
        send_update t v (current_update t);
        t.upsilon <- Int_set.add v t.upsilon);
    on_discover_remove = (fun v -> t.upsilon <- Int_set.remove v t.upsilon);
    on_receive =
      (fun v { Proto.lmax = lmax_v; _ } ->
        ignore v;
        let h = hardware_clock t in
        ignore (Estimate.raise_to t.lmax ~at:h lmax_v);
        adjust_clock t);
    on_timer =
      (function
      | Proto.Tick ->
        (* One update per tick, the same value to every member of Υ. *)
        let msg = current_update t in
        Int_set.iter (fun v -> send_update t v msg) t.upsilon;
        adjust_clock t;
        Engine.set_timer t.ctx ~after:t.params.Params.delta_h Proto.Tick
      | Proto.Lost _ -> ());
  }

let upsilon t = Int_set.elements t.upsilon

let discrete_jumps t = t.discrete_jumps

let messages_sent t = t.messages_sent
