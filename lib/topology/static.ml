module Prng = Dsim.Prng

let check_n ?(min = 1) n =
  if n < min then invalid_arg (Printf.sprintf "Static: need at least %d nodes" min)

let path n =
  check_n ~min:2 n;
  List.init (n - 1) (fun i -> (i, i + 1))

let ring n =
  check_n ~min:3 n;
  (0, n - 1) :: List.init (n - 1) (fun i -> (i, i + 1))
  |> List.sort Dsim.Dyngraph.compare_edge

let star n =
  check_n ~min:2 n;
  List.init (n - 1) (fun i -> (0, i + 1))

let complete n =
  check_n ~min:2 n;
  List.concat_map (fun u -> List.init (n - 1 - u) (fun k -> (u, u + 1 + k))) (List.init n Fun.id)

let grid ~rows ~cols =
  if rows < 1 || cols < 1 then invalid_arg "Static.grid: empty grid";
  let id r c = (r * cols) + c in
  let horizontal =
    List.concat_map
      (fun r -> List.init (cols - 1) (fun c -> (id r c, id r (c + 1))))
      (List.init rows Fun.id)
  in
  let vertical =
    List.concat_map
      (fun r -> List.init cols (fun c -> (id r c, id (r + 1) c)))
      (List.init (rows - 1) Fun.id)
  in
  List.sort Dsim.Dyngraph.compare_edge (horizontal @ vertical)

let binary_tree n =
  check_n ~min:2 n;
  List.init (n - 1) (fun i ->
      let child = i + 1 in
      ((child - 1) / 2, child))

let adjacency n edges =
  let adj = Array.make n [] in
  List.iter
    (fun (u, v) ->
      adj.(u) <- v :: adj.(u);
      adj.(v) <- u :: adj.(v))
    edges;
  adj

let distances ~n edges src =
  let adj = adjacency n edges in
  let dist = Array.make n max_int in
  let queue = Queue.create () in
  dist.(src) <- 0;
  Queue.push src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    List.iter
      (fun v ->
        if dist.(v) = max_int then begin
          dist.(v) <- dist.(u) + 1;
          Queue.push v queue
        end)
      adj.(u)
  done;
  dist

let is_connected ~n edges =
  n <= 1 || Array.for_all (fun d -> d < max_int) (distances ~n edges 0)

let dist ~n edges u v = (distances ~n edges u).(v)

let diameter ~n edges =
  let best = ref 0 in
  for u = 0 to n - 1 do
    let d = distances ~n edges u in
    Array.iter
      (fun x ->
        if x = max_int then invalid_arg "Static.diameter: graph is disconnected";
        if x > !best then best := x)
      d
  done;
  !best

let spanning_tree ~n edges =
  if not (is_connected ~n edges) then
    invalid_arg "Static.spanning_tree: graph is disconnected";
  let adj = adjacency n edges in
  let seen = Array.make n false in
  let tree = ref [] in
  let queue = Queue.create () in
  seen.(0) <- true;
  Queue.push 0 queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    List.iter
      (fun v ->
        if not seen.(v) then begin
          seen.(v) <- true;
          tree := Dsim.Dyngraph.normalize u v :: !tree;
          Queue.push v queue
        end)
      adj.(u)
  done;
  List.sort Dsim.Dyngraph.compare_edge !tree

let non_tree_edges ~n edges =
  let tree = spanning_tree ~n edges in
  List.filter (fun e -> not (List.mem e tree)) (List.sort_uniq Dsim.Dyngraph.compare_edge edges)

(* Clustered communities over a *shuffled* id space: dense intra-cluster
   rings plus random chords, sparse bridges closing a ring of clusters.
   Because membership comes from a random permutation, nodes of one
   community are scattered across the id range — the contiguous shard
   split cuts almost every intra-cluster edge, the adversarial case for
   cross-shard traffic. O(n * degree) construction, usable at the tens-of-thousands scale the
   parallel-dispatch smoke runs at. *)
let cluster prng ~n ~clusters ~degree =
  check_n ~min:2 n;
  if clusters < 1 || clusters > n / 2 then
    invalid_arg "Static.cluster: clusters must be in [1, n/2]";
  if degree < 2 then invalid_arg "Static.cluster: degree must be >= 2";
  let perm = Array.init n (fun i -> i) in
  Prng.shuffle prng perm;
  let bounds c = c * n / clusters in
  let edges = ref [] in
  let add u v =
    if u <> v then edges := (if u < v then (u, v) else (v, u)) :: !edges
  in
  for c = 0 to clusters - 1 do
    let lo = bounds c and hi = bounds (c + 1) in
    let m = hi - lo in
    (* Ring through the community keeps it connected. *)
    for i = lo to hi - 1 do
      add perm.(i) perm.(lo + ((i - lo + 1) mod m))
    done;
    (* Random chords up to the requested average degree. *)
    let chords = (degree - 2) * m / 2 in
    for _ = 1 to chords do
      add perm.(lo + Prng.int prng m) perm.(lo + Prng.int prng m)
    done;
    (* One bridge to the next community closes a ring of clusters. *)
    let lo' = bounds ((c + 1) mod clusters) and hi' = bounds (((c + 1) mod clusters) + 1) in
    add perm.(lo + Prng.int prng m) perm.(lo' + Prng.int prng (hi' - lo'))
  done;
  List.sort_uniq Dsim.Dyngraph.compare_edge !edges

let erdos_renyi prng ~n ~p =
  check_n ~min:2 n;
  if p <= 0. || p > 1. then invalid_arg "Static.erdos_renyi: p must be in (0, 1]";
  let attempt () =
    List.filter (fun _ -> Prng.float prng 1. < p) (complete n)
  in
  let rec go k =
    if k = 0 then invalid_arg "Static.erdos_renyi: could not draw a connected graph";
    let edges = attempt () in
    if is_connected ~n edges then edges else go (k - 1)
  in
  go 1000

let random_geometric prng ~n ~radius =
  check_n ~min:2 n;
  if radius <= 0. then invalid_arg "Static.random_geometric: radius must be positive";
  let points = Array.init n (fun _ -> (Prng.float prng 1., Prng.float prng 1.)) in
  let edges_for r =
    let r2 = r *. r in
    List.filter
      (fun (u, v) ->
        let xu, yu = points.(u) and xv, yv = points.(v) in
        let dx = xu -. xv and dy = yu -. yv in
        (dx *. dx) +. (dy *. dy) <= r2)
      (complete n)
  in
  let rec grow r =
    let edges = edges_for r in
    if is_connected ~n edges then (points, edges) else grow (r *. 1.1)
  in
  grow radius
