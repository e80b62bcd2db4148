module Hwclock = Dsim.Hwclock
module Delay = Dsim.Delay

type t = {
  n : int;
  mask : Mask.t;
  layers : int array;
  rho : float;
  delay_bound : float;
  beta : Hwclock.t array;
}

let prepare ~n ~edges ~mask ~source ~rho ~delay_bound =
  if rho <= 0. then invalid_arg "Layered.prepare: rho must be positive";
  List.iter
    (fun (u, v) ->
      match Mask.delay mask u v with
      | Some d when d > delay_bound ->
        invalid_arg "Layered.prepare: masked delay exceeds the delay bound"
      | Some _ | None -> ())
    edges;
  let layers = Mask.flexible_distances mask ~n ~edges source in
  Array.iter
    (fun d ->
      if d = max_int then invalid_arg "Layered.prepare: network must be connected")
    layers;
  let beta =
    Array.init n (fun x ->
        (* H_x(t) = t + min(rho t, T . dist): rate 1+rho until
           t = T . dist / rho, rate 1 afterwards. *)
        let switch = delay_bound *. float_of_int layers.(x) /. rho in
        Hwclock.fast_until ~rho switch)
  in
  { n; mask; layers; rho; delay_bound; beta }

let layer t x = t.layers.(x)

let depth t = Array.fold_left Stdlib.max 0 t.layers

(* Alpha delays (all clocks perfect): constrained edges take P(e);
   unconstrained take T "uphill" (away from the source) and 0 "downhill". *)
let alpha_delay t ~src ~dst =
  match Mask.delay t.mask src dst with
  | Some p -> p
  | None -> if t.layers.(src) <= t.layers.(dst) then t.delay_bound else 0.

let alpha_clocks t = Array.init t.n (fun _ -> Hwclock.perfect)

let beta_clocks t = Array.copy t.beta

let alpha_delay_policy t =
  Delay.directed ~bound:t.delay_bound (fun ~src ~dst ~now ->
      ignore now;
      alpha_delay t ~src ~dst)

(* In beta, a message sent at real time s must be received at the real
   time r where the recipient's hardware clock shows what it showed in
   alpha at the alpha-receive time. Alpha clocks are perfect, so
   alpha-time equals hardware value: t_alpha_send = H^beta_src(s),
   t_alpha_recv = t_alpha_send + d_alpha, and
   r = (H^beta_dst)^{-1}(t_alpha_recv). *)
let beta_delay_policy t =
  Delay.directed ~bound:t.delay_bound (fun ~src ~dst ~now ->
      let alpha_send = Hwclock.value t.beta.(src) now in
      let alpha_recv = alpha_send +. alpha_delay t ~src ~dst in
      let recv = Hwclock.inverse t.beta.(dst) alpha_recv in
      Float.max 0. (recv -. now))

let min_time t v =
  t.delay_bound *. float_of_int t.layers.(v) *. (1. +. (1. /. t.rho))

let guaranteed_skew t v = t.delay_bound *. float_of_int t.layers.(v) /. 4.

type closing = {
  edges : (int * int) list;
  clocks : Hwclock.t array;
  delay : Delay.t;
  t_add : float;
}

let closing_path ~n ~rho ~delay_bound =
  if n < 3 then invalid_arg "Layered.closing_path: need n >= 3";
  let edges = Topology.Static.path n in
  let t = prepare ~n ~edges ~mask:Mask.empty ~source:0 ~rho ~delay_bound in
  {
    edges;
    clocks = beta_clocks t;
    delay = beta_delay_policy t;
    t_add = min_time t (n - 1) +. 10.;
  }
