module Engine = Dsim.Engine

type view = {
  n : int;
  clock_of : int -> float;
  lmax_of : int -> float;
  iter_edges : (int -> int -> unit) -> unit;
}

(* Float slack must scale with the magnitudes compared: clocks and probe
   gaps grow with the horizon, and a fixed absolute epsilon both masks
   real sub-epsilon deficits on short runs and fabricates violations on
   multi-thousand-unit horizons where rounding alone exceeds it. *)
let eps_abs = 1e-9
let eps_rel = 1e-7
let[@inline] slack magnitude = eps_abs +. (eps_rel *. Float.abs magnitude)

type snapshot = {
  mutable time : float;
  l : Float.Array.t;
  lmax : Float.Array.t;
  iter_edges : (int -> int -> unit) -> unit;
}

let fill view (s : snapshot) ~time =
  s.time <- time;
  for i = 0 to view.n - 1 do
    Float.Array.set s.l i (view.clock_of i);
    Float.Array.set s.lmax i (view.lmax_of i)
  done

let blank view : snapshot =
  let column () = Float.Array.make view.n 0. in
  { time = nan; l = column (); lmax = column (); iter_edges = view.iter_edges }

let snapshot view ~time =
  let s = blank view in
  fill view s ~time;
  s

(* One engine callback per instant, filling one reused snapshot. The
   instants are [start + k every], not a running sum, which drifts past
   [until] and drops the probe there. The count takes [slack], and a
   last instant within [slack] of [until] is [until] itself. *)
let every engine view ~every ~until observe =
  if every <= 0. then invalid_arg "Metrics.every: period must be positive";
  let s = blank view in
  let start = Engine.now engine in
  let span = (until -. start) /. every in
  let last = int_of_float (Float.floor (span +. slack span)) in
  let at_end = Float.abs (span -. float_of_int last) <= slack span in
  let rec schedule k =
    if k <= last then
      let time =
        if k = last && at_end then until else start +. (float_of_int k *. every)
      in
      Engine.at engine ~time (fun () ->
          fill view s ~time:(Engine.now engine);
          observe s;
          schedule (k + 1))
  in
  schedule 0

let spread keep col =
  let hi = ref neg_infinity and lo = ref infinity in
  for i = 0 to Float.Array.length col - 1 do
    if keep i then begin
      let x = Float.Array.get col i in
      if x > !hi then hi := x;
      if x < !lo then lo := x
    end
  done;
  !hi -. !lo

let global_skew (s : snapshot) = spread (fun _ -> true) s.l

let[@inline] edge_skew (s : snapshot) u v = Float.abs (Float.Array.get s.l u -. Float.Array.get s.l v)

(* The running maximum lives in a one-cell float array: a float ref the
   edge closure captured would box every update. *)
let local_skew (s : snapshot) =
  let worst = Float.Array.make 1 0. in
  s.iter_edges (fun u v ->
      let d = edge_skew s u v in
      if d > Float.Array.get worst 0 then Float.Array.set worst 0 d);
  Float.Array.get worst 0

let lmax_lag (s : snapshot) = spread (fun _ -> true) s.lmax

let clock_lag (s : snapshot) =
  let lag = ref 0. in
  for i = 0 to Float.Array.length s.l - 1 do
    let d = Float.Array.get s.lmax i -. Float.Array.get s.l i in
    if d > !lag then lag := d
  done;
  !lag

type sample = {
  time : float;
  global_skew : float;
  local_skew : float;
  lmax_lag : float;
  clock_lag : float;
  events : int;
}

(* Watched pairs are a plain array: the watch list is tiny and scanned
   linearly per sample. *)
type recorder = {
  engine : (Proto.message, Proto.timer) Engine.t;
  mutable samples : sample list; (* newest first *)
  watched : (int * int * (float * float) list ref) array; (* u < v, deduplicated *)
}

let recorder engine ~watch =
  let pair (u, v) = Dsim.Dyngraph.normalize u v in
  let watch = List.sort_uniq compare (List.map pair watch) in
  { engine; samples = []; watched = Array.of_list (List.map (fun (u, v) -> (u, v, ref [])) watch) }

let record r (s : snapshot) =
  r.samples <-
    {
      time = s.time;
      global_skew = global_skew s;
      local_skew = local_skew s;
      lmax_lag = lmax_lag s;
      clock_lag = clock_lag s;
      events = Engine.events_processed r.engine;
    }
    :: r.samples;
  Array.iter (fun (u, v, trace) -> trace := (s.time, edge_skew s u v) :: !trace) r.watched

let attach engine view ~every:period ~until ?(watch = []) () =
  let r = recorder engine ~watch in
  every engine view ~every:period ~until (record r);
  r

let samples recorder = List.rev recorder.samples

let pair_trace recorder (u, v) =
  let u, v = Dsim.Dyngraph.normalize u v in
  match Array.find_opt (fun (a, b, _) -> a = u && b = v) recorder.watched with
  | Some (_, _, trace) -> List.rev !trace
  | None -> []

let recovery_time ~after ~bound samples =
  (* First sample time t >= after such that every sample from t onward has
     global_skew <= bound; the recovery time is t - after. Walking the
     time-sorted list backwards keeps this O(|samples|). *)
  let rec scan best = function
    | [] -> best
    | s :: earlier ->
      if s.time < after then best
      else if s.global_skew <= bound then scan (Some s.time) earlier
      else best (* a violation ends the maximal in-bound suffix *)
  in
  match scan None (List.rev samples) with
  | None -> None
  | Some t -> Some (Float.max 0. (t -. after))

let max_global_skew recorder =
  List.fold_left (fun acc s -> Float.max acc s.global_skew) 0. recorder.samples

let max_local_skew recorder =
  List.fold_left (fun acc s -> Float.max acc s.local_skew) 0. recorder.samples
