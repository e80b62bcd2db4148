type t = {
  n : int;
  rho : float;
  delay_bound : float;
  discovery_bound : float;
  delta_h : float;
  b0 : float;
}

let delta_t p = p.delay_bound +. (p.delta_h /. (1. -. p.rho))

let delta_t' p = (1. +. p.rho) *. delta_t p

let tau p =
  ((1. +. p.rho) /. (1. -. p.rho) *. delta_t p) +. p.delay_bound +. p.discovery_bound

let min_b0 p = 2. *. (1. +. p.rho) *. tau p

let global_skew_bound p =
  (((1. +. p.rho) *. p.delay_bound) +. (2. *. p.rho *. p.discovery_bound))
  *. float_of_int (p.n - 1)

let w p = ((4. *. global_skew_bound p /. p.b0) +. 1.) *. tau p

(* The B(0) intercept is 5G + (1+rho)tau + B0; the slope is B0 per
   (1+rho)tau of subjective time (Section 5). *)
let b p dt =
  let unit = (1. +. p.rho) *. tau p in
  Float.max p.b0
    ((5. *. global_skew_bound p) +. unit +. p.b0 -. (p.b0 *. dt /. unit))

let stabilize_subjective p =
  let unit = (1. +. p.rho) *. tau p in
  ((5. *. global_skew_bound p) +. unit) *. unit /. p.b0

let stabilize_real p =
  (stabilize_subjective p /. (1. -. p.rho)) +. delta_t p +. p.discovery_bound +. w p

let dynamic_local_skew p dt =
  let age = Float.max ((1. -. p.rho) *. (dt -. delta_t p -. p.discovery_bound -. w p)) 0. in
  b p age +. (2. *. p.rho *. w p)

let stable_local_skew p = p.b0 +. (2. *. p.rho *. w p)

let validate p =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  if p.n < 2 then err "n must be at least 2 (got %d)" p.n
  else if not (p.rho > 0. && p.rho <= 0.5) then
    err "rho must lie in (0, 1/2] (got %g); rate >= 1/2 requires rho <= 1/2" p.rho
  else if not (p.delay_bound > 0.) then err "delay bound T must be positive"
  else if not (p.delta_h > 0.) then err "delta_h must be positive"
  else if
    not (p.discovery_bound > Float.max p.delay_bound (p.delta_h /. (1. -. p.rho)))
  then
    err "discovery bound D = %g must exceed max(T, dH/(1-rho)) = %g" p.discovery_bound
      (Float.max p.delay_bound (p.delta_h /. (1. -. p.rho)))
  else if not (Float.is_finite p.b0) then err "b0 must be finite (got %g)" p.b0
  else if not (p.b0 > min_b0 p) then
    err "b0 = %g must exceed 2(1+rho)tau = %g" p.b0 (min_b0 p)
  else Ok ()

let make ?(rho = 0.05) ?(delay_bound = 1.0) ?discovery_bound ?(delta_h = 1.0) ?b0 ~n () =
  let discovery_bound =
    match discovery_bound with
    | Some d -> d
    | None -> 1.05 *. Float.max delay_bound (delta_h /. (1. -. rho)) +. 0.5
  in
  let provisional =
    { n; rho; delay_bound; discovery_bound; delta_h; b0 = infinity }
  in
  let b0 = match b0 with Some b -> b | None -> 2.5 *. min_b0 provisional in
  let p = { provisional with b0 } in
  match validate p with Ok () -> p | Error msg -> invalid_arg ("Params.make: " ^ msg)

let pp fmt p =
  Format.fprintf fmt
    "@[<v>n=%d rho=%g T=%g D=%g dH=%g B0=%g@,\
     dT=%g dT'=%g tau=%g@,\
     G(n)=%g W=%g B(0)=%g@,\
     stable local skew=%g stabilize(subj)=%g stabilize(real)=%g@]"
    p.n p.rho p.delay_bound p.discovery_bound p.delta_h p.b0 (delta_t p) (delta_t' p)
    (tau p) (global_skew_bound p) (w p) (b p 0.) (stable_local_skew p)
    (stabilize_subjective p) (stabilize_real p)
