(* Edge-sparse dynamic graph. Storage is O(n + edges-ever-touched), not
   O(n^2): each node keeps a sorted array of the peers it has ever shared
   an edge with, parallel to a slot index into a struct-of-arrays edge
   pool holding present/epoch/since. Entries persist across removes so an
   edge's epoch counter survives re-adds (Section 3.2's transient-change
   semantics). The old representation packed pairs as [u * n + v] into a
   Hashtbl — that key collides once node ids reach or exceed the n the
   graph was built with (e.g. n=4: {1,7} and {2,3} both pack to 11), and
   it caps the id space at construction time. Sorted-array lookups are
   collision-free for any id, allocation-free, and [add_node] grows the
   graph in place for populations that join mid-run. *)

type t = {
  mutable node_count : int;
  (* Per-node adjacency: [adj_peer.(u)] holds the sorted peer ids of every
     edge {u, peer} ever touched (present or not); [adj_slot.(u)] is the
     parallel edge-pool slot. [adj_len.(u)] entries are live; the rest is
     capacity. [deg.(u)] counts currently-present neighbors. *)
  mutable adj_peer : int array array;
  mutable adj_slot : int array array;
  mutable adj_len : int array;
  mutable deg : int array;
  (* Edge pool, one slot per edge ever touched, normalized u < v. *)
  mutable eu : int array;
  mutable ev : int array;
  mutable epresent : Bytes.t;
  mutable eepoch : int array;
  mutable esince : float array;
  mutable pool_len : int;
  mutable live : int;
}

let empty_ints : int array = [||]

let create ~n =
  if n <= 0 then invalid_arg "Dyngraph.create: n must be positive";
  {
    node_count = n;
    adj_peer = Array.make n empty_ints;
    adj_slot = Array.make n empty_ints;
    adj_len = Array.make n 0;
    deg = Array.make n 0;
    eu = empty_ints;
    ev = empty_ints;
    epresent = Bytes.empty;
    eepoch = empty_ints;
    esince = [||];
    pool_len = 0;
    live = 0;
  }

let n g = g.node_count

let add_node g =
  let id = g.node_count in
  let cap = Array.length g.adj_len in
  if id >= cap then begin
    let cap' = max 8 (2 * cap) in
    let grow_arr a = Array.init cap' (fun i -> if i < cap then a.(i) else empty_ints) in
    g.adj_peer <- grow_arr g.adj_peer;
    g.adj_slot <- grow_arr g.adj_slot;
    let grow_int a =
      let a' = Array.make cap' 0 in
      Array.blit a 0 a' 0 cap;
      a'
    in
    g.adj_len <- grow_int g.adj_len;
    g.deg <- grow_int g.deg
  end;
  g.adj_peer.(id) <- empty_ints;
  g.adj_slot.(id) <- empty_ints;
  g.adj_len.(id) <- 0;
  g.deg.(id) <- 0;
  g.node_count <- id + 1;
  id

let normalize u v = if u <= v then (u, v) else (v, u)

(* Lexicographic on the int endpoints: what polymorphic [compare] would
   compute, minus the generic-comparison dispatch per element. *)
let compare_edge (u1, v1) (u2, v2) =
  let c = Int.compare u1 u2 in
  if c <> 0 then c else Int.compare v1 v2

let check_nodes g u v =
  if u < 0 || v < 0 || u >= g.node_count || v >= g.node_count then
    invalid_arg "Dyngraph: node out of range";
  if u = v then invalid_arg "Dyngraph: self-loop"

(* Binary search for [v] in u's adjacency. Returns the pool slot, or
   [(-1 - insertion_point)] when absent — allocation-free either way. *)
let find_slot g u v =
  let peers = g.adj_peer.(u) in
  let lo = ref 0 and hi = ref (g.adj_len.(u) - 1) in
  let found = ref min_int in
  while !found = min_int && !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let p = Array.unsafe_get peers mid in
    if p = v then found := Array.unsafe_get g.adj_slot.(u) mid
    else if p < v then lo := mid + 1
    else hi := mid - 1
  done;
  if !found = min_int then -1 - !lo else !found

(* Insert (peer, slot) into u's adjacency at the sorted position. *)
let adj_insert g u ~at ~peer ~slot =
  let len = g.adj_len.(u) in
  let peers = g.adj_peer.(u) in
  let cap = Array.length peers in
  if len = cap then begin
    let cap' = max 4 (2 * cap) in
    let peers' = Array.make cap' 0 and slots' = Array.make cap' 0 in
    Array.blit peers 0 peers' 0 len;
    Array.blit g.adj_slot.(u) 0 slots' 0 len;
    g.adj_peer.(u) <- peers';
    g.adj_slot.(u) <- slots'
  end;
  let peers = g.adj_peer.(u) and slots = g.adj_slot.(u) in
  Array.blit peers at peers (at + 1) (len - at);
  Array.blit slots at slots (at + 1) (len - at);
  peers.(at) <- peer;
  slots.(at) <- slot;
  g.adj_len.(u) <- len + 1

let pool_grow g =
  let cap = Array.length g.eu in
  let cap' = max 16 (2 * cap) in
  let grow_int a =
    let a' = Array.make cap' 0 in
    Array.blit a 0 a' 0 cap;
    a'
  in
  g.eu <- grow_int g.eu;
  g.ev <- grow_int g.ev;
  g.eepoch <- grow_int g.eepoch;
  let f' = Array.make cap' 0. in
  Array.blit g.esince 0 f' 0 cap;
  g.esince <- f';
  let b' = Bytes.make cap' '\000' in
  Bytes.blit g.epresent 0 b' 0 cap;
  g.epresent <- b'

let alloc_slot g u v =
  if g.pool_len = Array.length g.eu then pool_grow g;
  let s = g.pool_len in
  g.pool_len <- s + 1;
  let lo, hi = normalize u v in
  g.eu.(s) <- lo;
  g.ev.(s) <- hi;
  Bytes.set g.epresent s '\000';
  g.eepoch.(s) <- 0;
  g.esince.(s) <- 0.;
  s

let present g s = Bytes.unsafe_get g.epresent s <> '\000'

let has_edge g u v =
  let s = find_slot g u v in
  s >= 0 && present g s

let add_edge g ~now u v =
  check_nodes g u v;
  let s =
    let s = find_slot g u v in
    if s >= 0 then s
    else begin
      let s = alloc_slot g u v in
      (* find_slot returned -1 - insertion_point for u; recompute v's. *)
      adj_insert g u ~at:(-1 - find_slot g u v) ~peer:v ~slot:s;
      adj_insert g v ~at:(-1 - find_slot g v u) ~peer:u ~slot:s;
      s
    end
  in
  if present g s then false
  else begin
    Bytes.set g.epresent s '\001';
    g.eepoch.(s) <- g.eepoch.(s) + 1;
    g.esince.(s) <- now;
    g.deg.(u) <- g.deg.(u) + 1;
    g.deg.(v) <- g.deg.(v) + 1;
    g.live <- g.live + 1;
    true
  end

let remove_edge g ~now u v =
  check_nodes g u v;
  ignore now;
  let s = find_slot g u v in
  if s >= 0 && present g s then begin
    Bytes.set g.epresent s '\000';
    g.eepoch.(s) <- g.eepoch.(s) + 1;
    g.deg.(u) <- g.deg.(u) - 1;
    g.deg.(v) <- g.deg.(v) - 1;
    g.live <- g.live - 1;
    true
  end
  else false

let epoch g u v =
  let s = find_slot g u v in
  if s >= 0 then Array.unsafe_get g.eepoch s else 0

let since g u v =
  let s = find_slot g u v in
  if s >= 0 && present g s then Some g.esince.(s) else None

let neighbors g u =
  let peers = g.adj_peer.(u) and slots = g.adj_slot.(u) in
  let acc = ref [] in
  for i = g.adj_len.(u) - 1 downto 0 do
    if present g slots.(i) then acc := peers.(i) :: !acc
  done;
  !acc

let edges g =
  let acc = ref [] in
  for s = 0 to g.pool_len - 1 do
    if present g s then acc := (g.eu.(s), g.ev.(s)) :: !acc
  done;
  List.sort compare_edge !acc

(* Allocation-free traversals for periodic samplers: no list is built, so
   a probe that runs every few time units costs nothing beyond the visit
   itself. Order is unspecified (pool order), unlike [edges]. *)
let iter_edges g f =
  for s = 0 to g.pool_len - 1 do
    if present g s then f (Array.unsafe_get g.eu s) (Array.unsafe_get g.ev s)
  done

let fold_edges g f init =
  let acc = ref init in
  for s = 0 to g.pool_len - 1 do
    if present g s then
      acc := f !acc (Array.unsafe_get g.eu s) (Array.unsafe_get g.ev s)
  done;
  !acc

let edge_count g = g.live

let footprint_words g =
  let acc = ref (4 * Array.length g.adj_len) in
  for u = 0 to g.node_count - 1 do
    acc := !acc + Array.length g.adj_peer.(u) + Array.length g.adj_slot.(u)
  done;
  (* epresent is a byte per slot; count it as words rounded up. *)
  !acc + (4 * Array.length g.eu) + ((Bytes.length g.epresent + 7) / 8)

let degree g u = g.deg.(u)

let is_connected g =
  let n = g.node_count in
  if n <= 1 then true
  else begin
    let seen = Bytes.make n '\000' in
    let stack = Array.make n 0 in
    let sp = ref 0 in
    let push u =
      if Bytes.get seen u = '\000' then begin
        Bytes.set seen u '\001';
        stack.(!sp) <- u;
        incr sp
      end
    in
    push 0;
    let visited = ref 0 in
    while !sp > 0 do
      decr sp;
      let u = stack.(!sp) in
      incr visited;
      let peers = g.adj_peer.(u) and slots = g.adj_slot.(u) in
      for i = 0 to g.adj_len.(u) - 1 do
        if present g slots.(i) then push peers.(i)
      done
    done;
    !visited = n
  end
