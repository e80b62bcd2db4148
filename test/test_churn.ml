module Churn = Topology.Churn
module Static = Topology.Static
module Prng = Dsim.Prng

let case name f = Alcotest.test_case name `Quick f

let test_normalize_sorts () =
  let events =
    [
      { Churn.time = 5.; op = Churn.Add; u = 3; v = 1 };
      { Churn.time = 1.; op = Churn.Remove; u = 0; v = 2 };
    ]
  in
  let sorted = Churn.normalize events in
  Alcotest.(check (float 1e-9)) "first by time" 1. (List.hd sorted).Churn.time;
  let last = List.nth sorted 1 in
  Alcotest.(check (pair int int)) "endpoints normalized" (1, 3) (last.Churn.u, last.Churn.v)

let test_final_edges () =
  let events =
    [
      { Churn.time = 1.; op = Churn.Add; u = 0; v = 2 };
      { Churn.time = 2.; op = Churn.Remove; u = 0; v = 1 };
      { Churn.time = 3.; op = Churn.Add; u = 0; v = 1 };
      { Churn.time = 4.; op = Churn.Remove; u = 0; v = 2 };
    ]
  in
  Alcotest.(check (list (pair int int))) "net effect" [ (0, 1) ]
    (Churn.final_edges ~initial:[ (0, 1) ] events)

let test_same_time_tie_break () =
  (* Documented behavior, not an accident: at equal timestamps on the
     same edge, Add sorts (and is applied) before Remove, so the edge
     ends down — whatever order the events were built in. *)
  let add = { Churn.time = 5.; op = Churn.Add; u = 1; v = 0 } in
  let remove = { Churn.time = 5.; op = Churn.Remove; u = 0; v = 1 } in
  List.iter
    (fun events ->
      (match Churn.normalize events with
      | [ first; second ] ->
        Alcotest.(check bool) "Add first" true (first.Churn.op = Churn.Add);
        Alcotest.(check bool) "Remove second" true (second.Churn.op = Churn.Remove)
      | _ -> Alcotest.fail "expected both events to survive normalize");
      Alcotest.(check (list (pair int int))) "edge ends down (initially present)" []
        (Churn.final_edges ~initial:[ (0, 1) ] events);
      Alcotest.(check (list (pair int int))) "edge ends down (initially absent)" []
        (Churn.final_edges ~initial:[] events))
    [ [ add; remove ]; [ remove; add ] ]

let test_flapping_many_edges_linearish () =
  (* Regression guard for the hoisted List.length: generating a schedule
     over many flapping edges must stay well under quadratic work. This
     is a smoke test (it finishes fast either way at this size) plus a
     shape check that every edge still gets its staggered phase. *)
  let extra = List.init 400 (fun i -> (2 * i, (2 * i) + 1)) in
  let events = Churn.flapping ~extra ~period:10. ~up_for:5. ~horizon:20. in
  let distinct_times =
    List.sort_uniq compare (List.map (fun e -> e.Churn.time) events)
  in
  Alcotest.(check bool) "phases remain staggered" true
    (List.length distinct_times > 100);
  Alcotest.(check bool) "events generated for every edge" true
    (List.length events >= 400)

let test_flapping_cycle () =
  let events = Churn.flapping ~extra:[ (0, 1) ] ~period:10. ~up_for:6. ~horizon:30. in
  (* Edge starts present: remove at 6, add at 10, remove at 16, add at 20,
     remove at 26. *)
  let times = List.map (fun e -> (e.Churn.time, e.Churn.op)) events in
  Alcotest.(check int) "five events" 5 (List.length times);
  Alcotest.(check bool) "alternates remove/add" true
    (times
    = [ (6., Churn.Remove); (10., Churn.Add); (16., Churn.Remove); (20., Churn.Add);
        (26., Churn.Remove) ])

let test_flapping_phases_differ () =
  let events =
    Churn.flapping ~extra:[ (0, 1); (2, 3) ] ~period:10. ~up_for:5. ~horizon:20.
  in
  let first_removal edge =
    List.find (fun e -> (e.Churn.u, e.Churn.v) = edge && e.Churn.op = Churn.Remove) events
  in
  Alcotest.(check bool) "staggered" true
    ((first_removal (0, 1)).Churn.time <> (first_removal (2, 3)).Churn.time)

let test_random_churn_preserves_backbone () =
  let n = 12 in
  let base = Static.ring n in
  let tree = Static.spanning_tree ~n base in
  let events = Churn.random_churn (Prng.of_int 5) ~n ~base ~rate:2. ~horizon:50. in
  Alcotest.(check bool) "events generated" true (List.length events > 10);
  List.iter
    (fun e ->
      Alcotest.(check bool) "never touches the spanning tree" false
        (List.mem (Dsim.Dyngraph.normalize e.Churn.u e.Churn.v) tree))
    events;
  (* Toggles are consistent: every remove is preceded by presence. *)
  let _final = Churn.final_edges ~initial:base events in
  ()

(* Reference oracle for [Churn.random_churn]'s draws: every non-tree pair
   of [Static.complete n] listed in order, one picked per event. *)
let listed_random_churn prng ~n ~base ~rate ~horizon =
  let tree = Static.spanning_tree ~n base in
  let present = Hashtbl.create 64 in
  List.iter
    (fun (u, v) ->
      let e = Dsim.Dyngraph.normalize u v in
      if not (List.mem e tree) then Hashtbl.replace present e ())
    base;
  let candidates =
    Array.of_list (List.filter (fun e -> not (List.mem e tree)) (Static.complete n))
  in
  let events = ref [] and t = ref 0. in
  if Array.length candidates > 0 then begin
    let continue = ref true in
    while !continue do
      t := !t +. (-.(1. /. rate) *. log (Float.max 1e-9 (Prng.float prng 1.)));
      if !t >= horizon then continue := false
      else begin
        let ((u, v) as e) = Prng.pick prng candidates in
        let op = if Hashtbl.mem present e then Churn.Remove else Churn.Add in
        if op = Churn.Remove then Hashtbl.remove present e else Hashtbl.replace present e ();
        events := { Churn.time = !t; op; u; v } :: !events
      end
    done
  end;
  Churn.normalize !events

let test_random_churn_matches_listed () =
  let bases =
    [
      ("ring", 12, Static.ring 12); ("path", 9, Static.path 9);
      ("complete", 6, Static.complete 6); ("tree", 16, Static.binary_tree 16);
      ("star", 10, Static.star 10); ("grid", 12, Static.grid ~rows:3 ~cols:4);
      ("pair", 2, Static.path 2);
    ]
  in
  List.iter
    (fun (name, n, base) ->
      List.iter
        (fun (seed, rate) ->
          let draw gen = gen (Prng.of_int seed) ~n ~base ~rate ~horizon:40. in
          Alcotest.(check bool)
            (Printf.sprintf "%s n=%d seed=%d rate=%g" name n seed rate)
            true
            (draw Churn.random_churn = draw listed_random_churn))
        [ (1, 0.5); (2, 3.); (7, 1.5); (11, 8.) ])
    bases

let test_random_churn_connectivity_invariant () =
  let n = 10 in
  let base = Static.ring n in
  let events = Churn.random_churn (Prng.of_int 6) ~n ~base ~rate:1. ~horizon:40. in
  (* Replay: after every event the graph stays connected. *)
  let module ES = Set.Make (struct
    type t = int * int

    let compare = compare
  end) in
  let state = ref (ES.of_list (List.map (fun (u, v) -> Dsim.Dyngraph.normalize u v) base)) in
  List.iter
    (fun e ->
      let key = Dsim.Dyngraph.normalize e.Churn.u e.Churn.v in
      (match e.Churn.op with
      | Churn.Add -> state := ES.add key !state
      | Churn.Remove -> state := ES.remove key !state);
      Alcotest.(check bool) "still connected" true
        (Static.is_connected ~n (ES.elements !state)))
    (Churn.normalize events)

let test_periodic_partition () =
  let events =
    Churn.periodic_partition ~cut:[ (0, 1); (2, 3) ] ~first_cut_at:10. ~down_for:5.
      ~every:20. ~horizon:50.
  in
  (* Cuts at 10 and 30 (cut at 50 >= horizon excluded): 2 edges x 2 cycles
     x (down+up). *)
  let removes = List.filter (fun e -> e.Churn.op = Churn.Remove) events in
  let adds = List.filter (fun e -> e.Churn.op = Churn.Add) events in
  Alcotest.(check int) "removes" 4 (List.length removes);
  Alcotest.(check int) "adds" 4 (List.length adds)

let test_single_new_edge () =
  match Churn.single_new_edge ~at:7. 3 1 with
  | [ e ] ->
    Alcotest.(check (float 1e-9)) "time" 7. e.Churn.time;
    Alcotest.(check bool) "is add" true (e.Churn.op = Churn.Add)
  | _ -> Alcotest.fail "expected exactly one event"

let test_schedule_applies_to_engine () =
  let engine =
    (Dsim.Engine.create
       ~clocks:[| Dsim.Hwclock.perfect; Dsim.Hwclock.perfect |]
       ~delay:(Dsim.Delay.zero ~bound:1.) ~timer_label:(fun () -> 0) ()
      : (unit, unit) Dsim.Engine.t)
  in
  let noop _ =
    {
      Dsim.Engine.on_init = ignore;
      on_discover_add = ignore;
      on_discover_remove = ignore;
      on_receive = (fun _ _ -> ());
      on_timer = ignore;
    }
  in
  Dsim.Engine.install engine 0 noop;
  Dsim.Engine.install engine 1 noop;
  Churn.schedule engine
    [
      { Churn.time = 1.; op = Churn.Add; u = 0; v = 1 };
      { Churn.time = 2.; op = Churn.Remove; u = 0; v = 1 };
    ];
  Dsim.Engine.run_until engine 1.5;
  Alcotest.(check bool) "added" true (Dsim.Dyngraph.has_edge (Dsim.Engine.graph engine) 0 1);
  Dsim.Engine.run_until engine 2.5;
  Alcotest.(check bool) "removed" false
    (Dsim.Dyngraph.has_edge (Dsim.Engine.graph engine) 0 1)

(* Property: replaying a random schedule through the engine ends with
   exactly the edge set final_edges predicts. *)
let prop_engine_replay_matches_final_edges =
  QCheck.Test.make ~name:"engine replay matches final_edges" ~count:100
    QCheck.(int_range 0 2000)
    (fun seed ->
      let n = 8 in
      let prng = Prng.of_int seed in
      let base = Static.ring n in
      let events = Churn.random_churn prng ~n ~base ~rate:1.5 ~horizon:30. in
      let noop _ =
        {
          Dsim.Engine.on_init = ignore;
          on_discover_add = ignore;
          on_discover_remove = ignore;
          on_receive = (fun _ (_ : unit) -> ());
          on_timer = (fun (_ : unit) -> ());
        }
      in
      let engine =
        Dsim.Engine.create
          ~clocks:(Array.init n (fun _ -> Dsim.Hwclock.perfect))
          ~delay:(Dsim.Delay.zero ~bound:1.) ~initial_edges:base
          ~timer_label:(fun () -> 0) ()
      in
      for i = 0 to n - 1 do
        Dsim.Engine.install engine i noop
      done;
      Churn.schedule engine events;
      Dsim.Engine.run_until engine 31.;
      Dsim.Dyngraph.edges (Dsim.Engine.graph engine)
      = Churn.final_edges ~initial:base events)

let suite =
  [
    case "normalize" test_normalize_sorts;
    QCheck_alcotest.to_alcotest prop_engine_replay_matches_final_edges;
    case "final edges" test_final_edges;
    case "flapping cycle" test_flapping_cycle;
    case "flapping staggered phases" test_flapping_phases_differ;
    case "same-timestamp Add/Remove tie-break" test_same_time_tie_break;
    case "flapping over many edges" test_flapping_many_edges_linearish;
    case "random churn preserves backbone" test_random_churn_preserves_backbone;
    case "random churn keeps connectivity" test_random_churn_connectivity_invariant;
    case "random churn draws the listed generator's pairs" test_random_churn_matches_listed;
    case "periodic partition" test_periodic_partition;
    case "single new edge" test_single_new_edge;
    case "schedule onto engine" test_schedule_applies_to_engine;
  ]
