type t = {
  n : int;
  k : int;
  a_len : int;
  b_len : int;
  u : int;
  v : int;
  edges : (int * int) list;
  block : (int * int) list;
}

(* Id scheme: w0 = 0; chain-A position i in 1..a_len-1 has id i;
   wn = a_len; chain-B position j in 1..b_len-1 has id a_len + j.
   Total ids: a_len + b_len = n. *)

let a_id t i =
  if i < 0 || i > t.a_len then invalid_arg "Twochain.a_id: position out of range";
  i

let b_id t j =
  if j < 0 || j > t.b_len then invalid_arg "Twochain.b_id: position out of range";
  if j = 0 then 0 else if j = t.b_len then t.a_len else t.a_len + j

let w0 _ = 0

let wn t = t.a_len

let build ~n ~k =
  if n < 6 then invalid_arg "Twochain.build: need n >= 6";
  let a_len = n / 2 in
  let b_len = n - a_len in
  if k < 1 || k >= (a_len / 2) - 1 then
    invalid_arg "Twochain.build: need 1 <= k < a_len/2 - 1";
  let t = { n; k; a_len; b_len; u = k; v = a_len - k; edges = []; block = [] } in
  let norm = Dsim.Dyngraph.normalize in
  let a_edges =
    List.init a_len (fun i -> norm (a_id t i) (a_id t (i + 1)))
  in
  let b_edges =
    List.init b_len (fun j -> norm (b_id t j) (b_id t (j + 1)))
  in
  let block =
    List.init k (fun i -> norm (a_id t i) (a_id t (i + 1)))
    @ List.init k (fun i -> norm (a_id t (a_len - k + i)) (a_id t (a_len - k + i + 1)))
  in
  {
    t with
    edges = List.sort Dsim.Dyngraph.compare_edge (a_edges @ b_edges);
    block = List.sort Dsim.Dyngraph.compare_edge block;
  }

let a_chain t = List.init (t.a_len + 1) (a_id t)

let b_chain t = List.init (t.b_len + 1) (b_id t)

let mask t ~delay = Mask.create (List.map (fun e -> (e, delay)) t.block)

let is_block_edge t u v = List.mem (Dsim.Dyngraph.normalize u v) t.block

type insertion = {
  new_edges : (int * int) list;
  clocks : float array;
  c : float;
  d : float;
  selected : int list;
}

let insertion t ~clock =
  let ids = Array.of_list (b_chain t) in
  let clocks = Array.map clock ids in
  let last = Array.length clocks - 1 in
  let gaps = List.init last (fun i -> Float.abs (clocks.(i) -. clocks.(i + 1))) in
  let d = List.fold_left Float.max 0. gaps +. 0.5 in
  let c = Float.max (2. *. d) ((clocks.(last) -. clocks.(0)) /. 2.) in
  let selected = Subseq.extract ~values:clocks ~c ~d in
  let rec pairs = function
    | a :: (b :: _ as rest) -> (ids.(a), ids.(b)) :: pairs rest
    | _ -> []
  in
  { new_edges = pairs selected; clocks; c; d; selected }
