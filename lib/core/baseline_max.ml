module Engine = Dsim.Engine
module Int_set = Set.Make (Int)

(* [L] and [Lmax] in one all-float record, the form {!Node} keeps them
   in: each is (value, anchor) with [get at = value +. (at -. anchor)],
   so a store allocates nothing. *)
type regs = {
  mutable l : float;
  mutable l_at : float;
  mutable lmax : float;
  mutable lmax_at : float;
}

type t = {
  ctx : Proto.ctx;
  params : Params.t;
  mutable upsilon : Int_set.t;
  r : regs;
  mutable discrete_jumps : int;
  mutable messages_sent : int;
}

let create params ctx =
  {
    ctx;
    params;
    upsilon = Int_set.empty;
    r = { l = 0.; l_at = 0.; lmax = 0.; lmax_at = 0. };
    discrete_jumps = 0;
    messages_sent = 0;
  }

let hardware_clock t = Engine.hardware_clock t.ctx

let logical_clock t = t.r.l +. (hardware_clock t -. t.r.l_at)

let max_estimate t = t.r.lmax +. (hardware_clock t -. t.r.lmax_at)

(* [L <- Lmax] whenever that raises [L]. *)
let adjust_clock t =
  let h = hardware_clock t in
  let r = t.r in
  let lmax = r.lmax +. (h -. r.lmax_at) in
  if lmax > r.l +. (h -. r.l_at) then begin
    r.l <- lmax;
    r.l_at <- h;
    t.discrete_jumps <- t.discrete_jumps + 1
  end

let current_update t =
  let h = hardware_clock t in
  let r = t.r in
  { Proto.l = r.l +. (h -. r.l_at); lmax = r.lmax +. (h -. r.lmax_at) }

let send_update t v msg =
  t.messages_sent <- t.messages_sent + 1;
  Engine.send t.ctx ~dst:v msg

(* Fault-injection restart: same contract as Node.restart — forget the
   neighbor set, reset (or corrupt) the clock registers, re-arm the tick. *)
let restart t ~corrupt =
  t.upsilon <- Int_set.empty;
  let h = hardware_clock t in
  let l, lmax = Proto.restart_registers ~corrupt ~at:h in
  let r = t.r in
  r.l <- l;
  r.l_at <- h;
  r.lmax <- lmax;
  r.lmax_at <- h;
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
        let r = t.r in
        if lmax_v > r.lmax +. (h -. r.lmax_at) then begin
          r.lmax <- lmax_v;
          r.lmax_at <- h
        end;
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
