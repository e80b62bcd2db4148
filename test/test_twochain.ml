module Twochain = Lowerbound.Twochain
module Static = Topology.Static
module Mask = Lowerbound.Mask

let case name f = Alcotest.test_case name `Quick f

let t = Twochain.build ~n:20 ~k:2

let test_sizes () =
  Alcotest.(check int) "a_len" 10 t.Twochain.a_len;
  Alcotest.(check int) "b_len" 10 t.Twochain.b_len;
  (* Chains share w0 and wn: (a_len + 1) + (b_len + 1) - 2 = n nodes. *)
  let ids = List.sort_uniq compare (Twochain.a_chain t @ Twochain.b_chain t) in
  Alcotest.(check int) "exactly n distinct ids" 20 (List.length ids);
  Alcotest.(check (list int)) "ids are 0..n-1" (List.init 20 Fun.id) ids

let test_endpoints () =
  Alcotest.(check int) "w0" 0 (Twochain.w0 t);
  Alcotest.(check int) "wn = a_len" 10 (Twochain.wn t);
  Alcotest.(check int) "chains share w0" (Twochain.w0 t) (Twochain.b_id t 0);
  Alcotest.(check int) "chains share wn" (Twochain.wn t) (Twochain.b_id t 10)

let test_u_v_positions () =
  Alcotest.(check int) "u at A-position k" (Twochain.a_id t 2) t.Twochain.u;
  Alcotest.(check int) "v at A-position a_len-k" (Twochain.a_id t 8) t.Twochain.v

let test_graph_shape () =
  let n = 20 in
  Alcotest.(check bool) "connected" true (Static.is_connected ~n t.Twochain.edges);
  (* Two chains: every internal node has degree 2, w0/wn have degree 2. *)
  Alcotest.(check int) "edge count = a_len + b_len" 20 (List.length t.Twochain.edges);
  (* Distance between w0 and wn is min chain length. *)
  Alcotest.(check int) "dist(w0, wn)" 10
    (Static.dist ~n t.Twochain.edges (Twochain.w0 t) (Twochain.wn t))

let test_block_edges () =
  (* k edges at each end of chain A. *)
  Alcotest.(check int) "2k block edges" 4 (List.length t.Twochain.block);
  Alcotest.(check bool) "first A edge blocked" true (Twochain.is_block_edge t 0 (Twochain.a_id t 1));
  Alcotest.(check bool) "middle A edge not blocked" false
    (Twochain.is_block_edge t (Twochain.a_id t 4) (Twochain.a_id t 5));
  List.iter
    (fun (u, v) ->
      Alcotest.(check bool) "block edges are edges" true (List.mem (u, v) t.Twochain.edges))
    t.Twochain.block

let test_mask_constrains_exactly_block () =
  let m = Twochain.mask t ~delay:1. in
  Alcotest.(check int) "constrained count" 4 (List.length (Mask.constrained_edges m));
  List.iter
    (fun (u, v) ->
      Alcotest.(check (option (float 1e-9))) "delay 1" (Some 1.) (Mask.delay m u v))
    t.Twochain.block

let test_flexible_distance_uv () =
  (* With the block constrained, u is at flexible distance 0 from w0 and
     dist_M(u, v) = a_len - 2k via the middle of chain A. *)
  let m = Twochain.mask t ~delay:1. in
  let d = Mask.flexible_distances m ~n:20 ~edges:t.Twochain.edges (Twochain.w0 t) in
  Alcotest.(check int) "u in layer 0" 0 d.(t.Twochain.u);
  Alcotest.(check int) "v at a_len - 2k" 6 d.(t.Twochain.v)

let test_odd_n () =
  let t = Twochain.build ~n:21 ~k:2 in
  Alcotest.(check int) "a_len = floor(n/2)" 10 t.Twochain.a_len;
  Alcotest.(check int) "b_len = ceil(n/2)" 11 t.Twochain.b_len;
  let ids = List.sort_uniq compare (Twochain.a_chain t @ Twochain.b_chain t) in
  Alcotest.(check int) "n distinct ids" 21 (List.length ids);
  Alcotest.(check bool) "connected" true (Static.is_connected ~n:21 t.Twochain.edges)

(* B-chain clocks 0, 2, ..., 20 from w0 to wn: d = 2 + 0.5, c = 20 / 2. *)
let test_insertion () =
  let pos = List.mapi (fun i id -> (id, i)) (Twochain.b_chain t) in
  let ins = Twochain.insertion t ~clock:(fun id -> 2. *. float_of_int (List.assoc id pos)) in
  Alcotest.(check (float 1e-9)) "d" 2.5 ins.Twochain.d;
  Alcotest.(check (float 1e-9)) "c" 10. ins.Twochain.c;
  Alcotest.(check (list int)) "selected" [ 0; 4; 8 ] ins.Twochain.selected;
  Alcotest.(check (list (pair int int)))
    "new edges" [ (0, 14); (14, 18) ] ins.Twochain.new_edges

let test_validation () =
  (match Twochain.build ~n:4 ~k:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "tiny n accepted");
  match Twochain.build ~n:20 ~k:5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "k too large accepted"

let prop_structure =
  QCheck.Test.make ~name:"two-chain structure for random n, k" ~count:100
    QCheck.(pair (int_range 8 80) (int_range 1 10))
    (fun (n, k) ->
      QCheck.assume (k < (n / 2 / 2) - 1);
      let t = Lowerbound.Twochain.build ~n ~k in
      let ids =
        List.sort_uniq compare
          (Lowerbound.Twochain.a_chain t @ Lowerbound.Twochain.b_chain t)
      in
      List.length ids = n
      && Static.is_connected ~n t.Lowerbound.Twochain.edges
      && List.length t.Lowerbound.Twochain.block = 2 * k)

let suite =
  [
    case "sizes" test_sizes;
    case "endpoints" test_endpoints;
    case "u and v positions" test_u_v_positions;
    case "graph shape" test_graph_shape;
    case "block edges" test_block_edges;
    case "mask covers the block" test_mask_constrains_exactly_block;
    case "flexible distance u-v" test_flexible_distance_uv;
    case "odd n" test_odd_n;
    case "Lemma 4.3 insertion" test_insertion;
    case "validation" test_validation;
    QCheck_alcotest.to_alcotest prop_structure;
  ]
