let check_non_empty name = function
  | [] -> invalid_arg (name ^ ": empty sample list")
  | xs -> xs

let mean xs =
  let xs = check_non_empty "Stats.mean" xs in
  List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let percentile q xs =
  let xs = check_non_empty "Stats.percentile" xs in
  if q < 0. || q > 1. then invalid_arg "Stats.percentile: q must be in [0, 1]";
  let sorted = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = pos -. float_of_int lo in
    (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)
  end

let minimum xs = List.fold_left Float.min infinity (check_non_empty "Stats.minimum" xs)

let maximum xs =
  List.fold_left Float.max neg_infinity (check_non_empty "Stats.maximum" xs)

let linear_fit points =
  if List.length points < 2 then invalid_arg "Stats.linear_fit: need two points";
  let n = float_of_int (List.length points) in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0. points in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0. points in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0. points in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0. points in
  let denom = (n *. sxx) -. (sx *. sx) in
  if Float.abs denom < 1e-12 then invalid_arg "Stats.linear_fit: degenerate abscissae";
  let slope = ((n *. sxy) -. (sx *. sy)) /. denom in
  let intercept = (sy -. (slope *. sx)) /. n in
  (slope, intercept)

let correlation points =
  if List.length points < 2 then invalid_arg "Stats.correlation: need two points";
  let xs = List.map fst points and ys = List.map snd points in
  let mx = mean xs and my = mean ys in
  let cov =
    List.fold_left (fun a (x, y) -> a +. ((x -. mx) *. (y -. my))) 0. points
  in
  let vx = List.fold_left (fun a x -> a +. ((x -. mx) ** 2.)) 0. xs in
  let vy = List.fold_left (fun a y -> a +. ((y -. my) ** 2.)) 0. ys in
  if vx = 0. || vy = 0. then 0. else cov /. sqrt (vx *. vy)
