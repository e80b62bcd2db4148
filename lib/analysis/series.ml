type t = (float * float) list

let after t s = List.filter (fun (time, _) -> time >= t) s

let between t1 t2 s = List.filter (fun (time, _) -> time >= t1 && time <= t2) s

let max_value s = List.fold_left (fun acc (_, v) -> Float.max acc v) neg_infinity s

let min_value s = List.fold_left (fun acc (_, v) -> Float.min acc v) infinity s

let value_at s t =
  let rec go best = function
    | (time, v) :: rest when time <= t -> go (Some v) rest
    | _ -> best
  in
  go None s

let first_below threshold s =
  List.find_opt (fun (_, v) -> v <= threshold) s |> Option.map fst
