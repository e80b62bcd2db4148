module Dyngraph = Dsim.Dyngraph

let case name f = Alcotest.test_case name `Quick f

let test_empty () =
  let g = Dyngraph.create ~n:4 in
  Alcotest.(check int) "n" 4 (Dyngraph.n g);
  Alcotest.(check bool) "no edge" false (Dyngraph.has_edge g 0 1);
  Alcotest.(check int) "no edges" 0 (Dyngraph.edge_count g);
  Alcotest.(check (list int)) "no neighbors" [] (Dyngraph.neighbors g 0)

let test_add_remove () =
  let g = Dyngraph.create ~n:4 in
  Alcotest.(check bool) "add" true (Dyngraph.add_edge g ~now:1. 0 1);
  Alcotest.(check bool) "add duplicate" false (Dyngraph.add_edge g ~now:2. 1 0);
  Alcotest.(check bool) "present" true (Dyngraph.has_edge g 1 0);
  Alcotest.(check bool) "remove" true (Dyngraph.remove_edge g ~now:3. 0 1);
  Alcotest.(check bool) "remove again" false (Dyngraph.remove_edge g ~now:4. 0 1);
  Alcotest.(check bool) "absent" false (Dyngraph.has_edge g 0 1)

let test_epoch () =
  let g = Dyngraph.create ~n:3 in
  Alcotest.(check int) "untouched epoch" 0 (Dyngraph.epoch g 0 1);
  ignore (Dyngraph.add_edge g ~now:0. 0 1);
  Alcotest.(check int) "after add" 1 (Dyngraph.epoch g 0 1);
  ignore (Dyngraph.remove_edge g ~now:1. 0 1);
  Alcotest.(check int) "after remove" 2 (Dyngraph.epoch g 0 1);
  ignore (Dyngraph.add_edge g ~now:2. 0 1);
  Alcotest.(check int) "after re-add" 3 (Dyngraph.epoch g 0 1)

let test_since () =
  let g = Dyngraph.create ~n:3 in
  Alcotest.(check (option (float 0.))) "absent" None (Dyngraph.since g 0 1);
  ignore (Dyngraph.add_edge g ~now:5. 0 1);
  Alcotest.(check (option (float 0.))) "present since 5" (Some 5.) (Dyngraph.since g 0 1);
  ignore (Dyngraph.remove_edge g ~now:6. 0 1);
  ignore (Dyngraph.add_edge g ~now:9. 0 1);
  Alcotest.(check (option (float 0.))) "re-added at 9" (Some 9.) (Dyngraph.since g 0 1)

let test_neighbors_sorted () =
  let g = Dyngraph.create ~n:5 in
  ignore (Dyngraph.add_edge g ~now:0. 2 4);
  ignore (Dyngraph.add_edge g ~now:0. 2 0);
  ignore (Dyngraph.add_edge g ~now:0. 2 3);
  Alcotest.(check (list int)) "sorted" [ 0; 3; 4 ] (Dyngraph.neighbors g 2)

let test_edges_normalized () =
  let g = Dyngraph.create ~n:4 in
  ignore (Dyngraph.add_edge g ~now:0. 3 1);
  ignore (Dyngraph.add_edge g ~now:0. 0 2);
  Alcotest.(check (list (pair int int))) "normalized sorted" [ (0, 2); (1, 3) ]
    (Dyngraph.edges g)

let test_iter_fold_edges () =
  let g = Dyngraph.create ~n:4 in
  ignore (Dyngraph.add_edge g ~now:0. 3 1);
  ignore (Dyngraph.add_edge g ~now:0. 0 2);
  ignore (Dyngraph.add_edge g ~now:0. 0 1);
  ignore (Dyngraph.remove_edge g ~now:1. 0 1);
  let seen = ref [] in
  Dyngraph.iter_edges g (fun u v -> seen := (u, v) :: !seen);
  Alcotest.(check (list (pair int int)))
    "iter visits present edges, normalized" [ (0, 2); (1, 3) ]
    (List.sort compare !seen);
  Alcotest.(check int) "fold agrees with edge_count" (Dyngraph.edge_count g)
    (Dyngraph.fold_edges g (fun acc _ _ -> acc + 1) 0)

(* A snapshot's connectivity is {!Topology.Static.is_connected} over its
   edge list. *)
let test_connectivity () =
  let g = Dyngraph.create ~n:4 in
  let connected () = Topology.Static.is_connected ~n:4 (Dyngraph.edges g) in
  Alcotest.(check bool) "empty disconnected" false (connected ());
  ignore (Dyngraph.add_edge g ~now:0. 0 1);
  ignore (Dyngraph.add_edge g ~now:0. 1 2);
  Alcotest.(check bool) "missing node 3" false (connected ());
  ignore (Dyngraph.add_edge g ~now:0. 2 3);
  Alcotest.(check bool) "path connected" true (connected ());
  ignore (Dyngraph.remove_edge g ~now:1. 1 2);
  Alcotest.(check bool) "split" false (connected ())

let test_validation () =
  let g = Dyngraph.create ~n:3 in
  Alcotest.check_raises "self loop" (Invalid_argument "Dyngraph: self-loop") (fun () ->
      ignore (Dyngraph.add_edge g ~now:0. 1 1));
  Alcotest.check_raises "out of range" (Invalid_argument "Dyngraph: node out of range")
    (fun () -> ignore (Dyngraph.add_edge g ~now:0. 0 7))

let test_normalize () =
  Alcotest.(check (pair int int)) "swap" (1, 2) (Dyngraph.normalize 2 1);
  Alcotest.(check (pair int int)) "keep" (1, 2) (Dyngraph.normalize 1 2)

let suite =
  [
    case "empty graph" test_empty;
    case "add/remove" test_add_remove;
    case "epochs count changes" test_epoch;
    case "since timestamps" test_since;
    case "neighbors sorted" test_neighbors_sorted;
    case "edges normalized" test_edges_normalized;
    case "iter/fold edges" test_iter_fold_edges;
    case "connectivity" test_connectivity;
    case "validation" test_validation;
    case "normalize" test_normalize;
  ]
