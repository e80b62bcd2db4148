type t = {
  bound : float;
  draw : src:int -> dst:int -> now:float -> float;
  drop : src:int -> dst:int -> now:float -> bool;
  const : float;
  may_drop : bool;
  pure : bool;
  min_lat : float;
}

let never_drop ~src:_ ~dst:_ ~now:_ = false

let check_bound bound =
  if bound < 0. || not (Float.is_finite bound) then
    invalid_arg "Delay: bound must be finite and non-negative"

let constant ~bound d =
  check_bound bound;
  if d < 0. || d > bound then invalid_arg "Delay.constant: delay out of range";
  {
    bound;
    draw = (fun ~src:_ ~dst:_ ~now:_ -> d);
    drop = never_drop;
    const = d;
    may_drop = false;
    pure = true;
    min_lat = d;
  }

let zero ~bound = constant ~bound 0.

let maximal ~bound = constant ~bound bound

let uniform prng ~bound =
  check_bound bound;
  {
    bound;
    draw = (fun ~src:_ ~dst:_ ~now:_ -> Prng.float prng bound);
    drop = never_drop;
    const = -1.;
    may_drop = false;
    pure = false;
    min_lat = 0.;
  }

(* splitmix64 finalizer: statistically strong enough for jitter, and a pure
   function of its input — no shared stream state to race on. *)
let mix64 (z : int64) =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let uniform_keyed ~seed ?(lo = 0.) ~bound () =
  check_bound bound;
  if lo < 0. || lo > bound then
    invalid_arg "Delay.uniform_keyed: lo out of [0, bound]";
  let draw ~src ~dst ~now =
    let open Int64 in
    let h = mix64 (add (of_int seed) 0x9E3779B97F4A7C15L) in
    let h = mix64 (logxor h (of_int src)) in
    let h = mix64 (logxor h (of_int dst)) in
    let h = mix64 (logxor h (bits_of_float now)) in
    (* 53 uniform bits -> [0, 1) *)
    let u = Int64.to_float (shift_right_logical h 11) *. 0x1p-53 in
    lo +. (u *. (bound -. lo))
  in
  {
    bound;
    draw;
    drop = never_drop;
    const = (if lo = bound then lo else -1.);
    may_drop = false;
    pure = true;
    min_lat = lo;
  }

let directed ?(pure = false) ?(min_lat = 0.) ~bound f =
  check_bound bound;
  if min_lat < 0. || min_lat > bound then
    invalid_arg "Delay.directed: min_lat out of [0, bound]";
  { bound; draw = f; drop = never_drop; const = -1.; may_drop = false; pure; min_lat }

let describe d =
  if d.const >= 0. then Printf.sprintf "constant %g" d.const
  else
    Printf.sprintf "%s%s, bound %g, min latency %g"
      (if d.pure then "pure" else "impure")
      (if d.may_drop then " lossy" else "")
      d.bound d.min_lat

let lossy prng ~rate inner =
  if rate < 0. || rate >= 1. then invalid_arg "Delay.lossy: rate must be in [0, 1)";
  {
    inner with
    drop =
      (fun ~src ~dst ~now ->
        inner.drop ~src ~dst ~now || Prng.float prng 1. < rate);
    may_drop = true;
    pure = false;
  }
