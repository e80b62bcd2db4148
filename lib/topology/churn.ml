module Prng = Dsim.Prng
module Engine = Dsim.Engine

type op = Add | Remove

type event = { time : float; op : op; u : int; v : int }

(* Same order polymorphic [compare] on [(u, v, op)] gave (Add sorts
   before Remove at equal endpoints), without building the tuples. *)
let op_rank = function Add -> 0 | Remove -> 1

let compare_event a b =
  let c = Float.compare a.time b.time in
  if c <> 0 then c
  else
    let c = Int.compare a.u b.u in
    if c <> 0 then c
    else
      let c = Int.compare a.v b.v in
      if c <> 0 then c else Int.compare (op_rank a.op) (op_rank b.op)

let normalize events =
  List.map
    (fun e ->
      let u, v = Dsim.Dyngraph.normalize e.u e.v in
      { e with u; v })
    events
  |> List.sort compare_event

let schedule engine events =
  List.iter
    (fun e ->
      match e.op with
      | Add -> Engine.schedule_edge_add engine ~at:e.time e.u e.v
      | Remove -> Engine.schedule_edge_remove engine ~at:e.time e.u e.v)
    events

module Edge_set = Set.Make (struct
  type t = int * int

  let compare = Dsim.Dyngraph.compare_edge
end)

let final_edges ~initial events =
  let init =
    Edge_set.of_list (List.map (fun (u, v) -> Dsim.Dyngraph.normalize u v) initial)
  in
  List.fold_left
    (fun acc e ->
      let key = Dsim.Dyngraph.normalize e.u e.v in
      match e.op with
      | Add -> Edge_set.add key acc
      | Remove -> Edge_set.remove key acc)
    init (normalize events)
  |> Edge_set.elements

let flapping ~extra ~period ~up_for ~horizon =
  if period <= 0. || up_for < 0. || up_for >= period then
    invalid_arg "Churn.flapping: need 0 <= up_for < period";
  (* Hoisted: recomputing the length inside per_edge made the generator
     quadratic in the number of flapping edges. *)
  let edge_count = float_of_int (Stdlib.max 1 (List.length extra)) in
  let per_edge i (u, v) =
    let phase = period *. float_of_int i /. edge_count in
    let rec cycle t acc =
      if t >= horizon then acc
      else
        let down = { time = t; op = Remove; u; v } in
        let up_time = t +. (period -. up_for) in
        if up_time >= horizon then down :: acc
        else cycle (up_time +. up_for) ({ time = up_time; op = Add; u; v } :: down :: acc)
    in
    cycle (phase +. up_for) []
  in
  normalize (List.concat (List.mapi per_edge extra))

(* The C(n,2) pairs (u, v), u < v, in lexicographic order: row u starts
   at rank u(2n-u-1)/2. *)
let row_start ~n u = u * ((2 * n) - u - 1) / 2

let unrank_pair ~n rank =
  (* binary search for the last row starting at or before [rank] *)
  let rec row lo hi =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if row_start ~n mid <= rank then row mid hi else row lo mid
  in
  let u = row 0 (n - 1) in
  (u, rank - row_start ~n u + u + 1)

let random_churn prng ~n ~base ~rate ~horizon =
  if rate <= 0. then invalid_arg "Churn.random_churn: rate must be positive";
  let tree_edges = Static.spanning_tree ~n base in
  let tree = Edge_set.of_list tree_edges in
  let present =
    ref
      (Edge_set.of_list
         (List.filter
            (fun e -> not (Edge_set.mem e tree))
            (List.map (fun (u, v) -> Dsim.Dyngraph.normalize u v) base)))
  in
  (* The candidates are the non-tree pairs in lexicographic order, never
     listed: draw [i] is the i-th pair rank that skips the sorted tree
     ranks. Tree edge j (rank r_j) comes before that pair iff the r_j - j
     non-tree pairs ahead of it number at most [i]; [skip] holds those
     counts, nondecreasing, so a binary search counts the edges to skip. *)
  let skip =
    Array.of_list (List.mapi (fun j (u, v) -> row_start ~n u + (v - u - 1) - j) tree_edges)
  in
  let skipped i =
    let rec count lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if skip.(mid) <= i then count (mid + 1) hi else count lo mid
    in
    count 0 (Array.length skip)
  in
  let candidates = (n * (n - 1) / 2) - Array.length skip in
  if candidates <= 0 then []
  else begin
    let events = ref [] in
    let t = ref 0. in
    let mean = 1. /. rate in
    let continue = ref true in
    while !continue do
      let u = Float.max 1e-9 (Prng.float prng 1.) in
      t := !t +. (-.mean *. log u);
      if !t >= horizon then continue := false
      else begin
        let i = Prng.int prng candidates in
        let key = unrank_pair ~n (i + skipped i) in
        if Edge_set.mem key !present then begin
          present := Edge_set.remove key !present;
          events := { time = !t; op = Remove; u = fst key; v = snd key } :: !events
        end
        else begin
          present := Edge_set.add key !present;
          events := { time = !t; op = Add; u = fst key; v = snd key } :: !events
        end
      end
    done;
    normalize !events
  end

let periodic_partition ~cut ~first_cut_at ~down_for ~every ~horizon =
  if down_for <= 0. || every <= down_for then
    invalid_arg "Churn.periodic_partition: need 0 < down_for < every";
  let rec cycles t acc =
    if t >= horizon then acc
    else
      let downs = List.map (fun (u, v) -> { time = t; op = Remove; u; v }) cut in
      let ups =
        if t +. down_for >= horizon then []
        else List.map (fun (u, v) -> { time = t +. down_for; op = Add; u; v }) cut
      in
      cycles (t +. every) (ups @ downs @ acc)
  in
  normalize (cycles first_cut_at [])

let single_new_edge ~at u v = [ { time = at; op = Add; u; v } ]
