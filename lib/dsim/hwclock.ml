type t = {
  starts : float array; (* segment start times; starts.(0) = 0 *)
  values : float array; (* H at each segment start *)
  rates : float array;  (* rate on [starts.(i), starts.(i+1)) *)
}

let of_rates schedule =
  match schedule with
  | [] -> invalid_arg "Hwclock.of_rates: empty schedule"
  | (t0, _) :: _ when t0 <> 0. ->
    invalid_arg "Hwclock.of_rates: first segment must start at 0"
  | schedule ->
    let n = List.length schedule in
    let starts = Array.make n 0. in
    let rates = Array.make n 0. in
    List.iteri
      (fun i (t, r) ->
        if r <= 0. then invalid_arg "Hwclock.of_rates: rate must be positive";
        if i > 0 && t <= starts.(i - 1) then
          invalid_arg "Hwclock.of_rates: segment times must increase";
        starts.(i) <- t;
        rates.(i) <- r)
      schedule;
    let values = Array.make n 0. in
    for i = 1 to n - 1 do
      values.(i) <- values.(i - 1) +. (rates.(i - 1) *. (starts.(i) -. starts.(i - 1)))
    done;
    { starts; values; rates }

let constant rate = of_rates [ (0., rate) ]

let perfect = constant 1.0

(* Index of the segment containing [t]: greatest i with starts.(i) <= t. *)
let segment_index starts t =
  let lo = ref 0 and hi = ref (Array.length starts - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if starts.(mid) <= t then lo := mid else hi := mid - 1
  done;
  !lo

(* [value]/[inverse] sit on the engine's per-event path (every timer arm
   and clock read). The constant-rate single-segment case — most bench
   and experiment clocks — is forced inline as straight-line arithmetic:
   an out-of-line call here boxes the float argument and result every
   time, several words per event for pure math. The multi-segment search
   stays out of line (Closure cannot inline the loop). *)
let value_multi c t =
  let i = segment_index c.starts t in
  c.values.(i) +. (c.rates.(i) *. (t -. c.starts.(i)))

let[@inline always] value c t =
  if t < 0. then invalid_arg "Hwclock.value: negative time";
  if Array.length c.starts = 1 then c.values.(0) +. (c.rates.(0) *. t)
  else value_multi c t

let inverse_multi c h =
  let i = segment_index c.values h in
  c.starts.(i) +. ((h -. c.values.(i)) /. c.rates.(i))

let[@inline always] inverse c h =
  if h < 0. then invalid_arg "Hwclock.inverse: negative value";
  if Array.length c.starts = 1 then h /. c.rates.(0)
  else inverse_multi c h

let rate_at c t =
  if t < 0. then invalid_arg "Hwclock.rate_at: negative time";
  c.rates.(segment_index c.starts t)

let segments c =
  Array.to_list (Array.init (Array.length c.starts) (fun i -> (c.starts.(i), c.rates.(i))))

let within_drift ~rho c =
  Array.for_all (fun r -> r >= 1. -. rho && r <= 1. +. rho) c.rates

let fastest ~rho = constant (1. +. rho)

let slowest ~rho = constant (1. -. rho)

let two_rate ~rho ~period ~horizon ~fast_first =
  if period <= 0. then invalid_arg "Hwclock.two_rate: period must be positive";
  let rec build t fast acc =
    if t >= horizon then List.rev ((horizon, 1.) :: acc)
    else
      let r = if fast then 1. +. rho else 1. -. rho in
      build (t +. period) (not fast) ((t, r) :: acc)
  in
  (* Drop a trailing (horizon, 1.) that coincides with a segment start. *)
  let schedule = build 0. fast_first [] in
  let rec dedup = function
    | (t1, _) :: ((t2, _) :: _ as rest) when t1 = t2 -> dedup rest
    | x :: rest -> x :: dedup rest
    | [] -> []
  in
  of_rates (dedup schedule)

let random_walk prng ~rho ~segment_mean ~horizon =
  if segment_mean <= 0. then
    invalid_arg "Hwclock.random_walk: segment_mean must be positive";
  let rec build t acc =
    if t >= horizon then List.rev ((horizon, 1.) :: acc)
    else
      let r = Prng.float_in prng (1. -. rho) (1. +. rho) in
      (* Exponential inter-arrival, clamped away from zero so schedules
         stay short. *)
      let u = Float.max 1e-9 (Prng.float prng 1.) in
      let len = Float.max (segment_mean /. 20.) (-.segment_mean *. log u) in
      build (t +. len) ((t, r) :: acc)
  in
  let rec dedup = function
    | (t1, _) :: ((t2, _) :: _ as rest) when t1 = t2 -> dedup rest
    | x :: rest -> x :: dedup rest
    | [] -> []
  in
  of_rates (dedup (build 0. []))

let fast_until ~rho switch =
  if switch <= 0. then constant 1.0
  else of_rates [ (0., 1. +. rho); (switch, 1.) ]
