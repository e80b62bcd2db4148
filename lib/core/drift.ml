module Hwclock = Dsim.Hwclock
module Prng = Dsim.Prng

type spec =
  | Perfect
  | Split_extremes
  | Gradient_rates
  | Alternating of float
  | Random_walk of float
  | Custom of (int -> Hwclock.t)

(* Clocks are immutable, so a pattern with a few distinct clocks builds
   each once and shares it: [Split_extremes] and [Alternating] cost two
   clocks, not one per node. *)
let assign params ~horizon ~seed spec =
  let n = params.Params.n in
  let rho = params.Params.rho in
  let clock_for =
    match spec with
    | Perfect -> fun _ -> Hwclock.perfect
    | Split_extremes ->
      let fast = Hwclock.fastest ~rho and slow = Hwclock.slowest ~rho in
      fun i -> if i < n / 2 then fast else slow
    | Gradient_rates ->
      fun i ->
        let frac = if n = 1 then 0. else float_of_int i /. float_of_int (n - 1) in
        Hwclock.constant (1. +. rho -. (2. *. rho *. frac))
    | Alternating period ->
      let fast = Hwclock.two_rate ~rho ~period ~horizon ~fast_first:true
      and slow = Hwclock.two_rate ~rho ~period ~horizon ~fast_first:false in
      fun i -> if i mod 2 = 0 then fast else slow
    | Random_walk segment_mean ->
      fun i ->
        let prng = Prng.of_int (seed + (7919 * i)) in
        Hwclock.random_walk prng ~rho ~segment_mean ~horizon
    | Custom f -> f
  in
  Array.init n clock_for
