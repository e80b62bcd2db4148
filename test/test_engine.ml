module Engine = Dsim.Engine
module Hwclock = Dsim.Hwclock
module Delay = Dsim.Delay
module Trace = Dsim.Trace

let case name f = Alcotest.test_case name `Quick f

let feq = Alcotest.float 1e-9

(* Timer labels are strings here; intern each to a dense id so distinct
   labels encode to distinct ints. *)
let label =
  let ids = Hashtbl.create 8 in
  fun s ->
    match Hashtbl.find_opt ids s with
    | Some i -> i
    | None ->
      let i = Hashtbl.length ids in
      Hashtbl.add ids s i;
      i

(* A recording node: logs every event it sees as (time, description). The
   engine hides real time from nodes, so the log uses a shared clock
   captured through the harness closure. *)
type harness = {
  engine : (string, string) Engine.t;
  log : (float * string) list ref;
}

let make ?(n = 2) ?(clocks = None) ?(delay = Delay.constant ~bound:1. 0.5)
    ?(discovery_lag = 0.) ?(initial_edges = []) ?trace
    ?(on_init = fun _ctx _id -> ()) ?(on_timer = fun _ctx _id _t -> ()) () =
  let clocks =
    match clocks with Some c -> c | None -> Array.init n (fun _ -> Hwclock.perfect)
  in
  let engine =
    Engine.create ~clocks ~delay ~discovery_lag ~initial_edges ?trace
      ~timer_label:label ()
  in
  let log = ref [] in
  let record time entry = log := (time, entry) :: !log in
  for i = 0 to n - 1 do
    Engine.install engine i (fun ctx ->
        {
          Engine.on_init =
            (fun () ->
              record (Engine.now engine) (Printf.sprintf "%d:init" i);
              on_init ctx i);
          on_discover_add =
            (fun v -> record (Engine.now engine) (Printf.sprintf "%d:add(%d)" i v));
          on_discover_remove =
            (fun v -> record (Engine.now engine) (Printf.sprintf "%d:rem(%d)" i v));
          on_receive =
            (fun src msg ->
              record (Engine.now engine) (Printf.sprintf "%d:recv(%d,%s)" i src msg));
          on_timer =
            (fun t ->
              record (Engine.now engine) (Printf.sprintf "%d:timer(%s)" i t);
              on_timer ctx i t);
        })
  done;
  { engine; log }

let entries h = List.rev !(h.log)

let has h entry = List.exists (fun (_, e) -> e = entry) (entries h)

let time_of h entry =
  match List.find_opt (fun (_, e) -> e = entry) (entries h) with
  | Some (t, _) -> t
  | None -> Alcotest.failf "event %s never happened" entry

let test_delivery () =
  let h =
    make ~initial_edges:[ (0, 1) ]
      ~on_init:(fun ctx i -> if i = 0 then Engine.send ctx ~dst:1 "hi")
      ()
  in
  Engine.run_until h.engine 10.;
  Alcotest.(check bool) "received" true (has h "1:recv(0,hi)");
  Alcotest.check feq "after 0.5 delay" 0.5 (time_of h "1:recv(0,hi)")

let test_initial_discovery_at_zero () =
  let h = make ~initial_edges:[ (0, 1) ] () in
  Engine.run_until h.engine 1.;
  Alcotest.check feq "node 0 discovers" 0. (time_of h "0:add(1)");
  Alcotest.check feq "node 1 discovers" 0. (time_of h "1:add(0)");
  (* init strictly precedes discoveries in the log *)
  let log = entries h in
  let idx entry =
    match List.mapi (fun i (_, e) -> (i, e)) log |> List.find_opt (fun (_, e) -> e = entry) with
    | Some (i, _) -> i
    | None -> -1
  in
  Alcotest.(check bool) "init before discovery" true (idx "0:init" < idx "0:add(1)")

let test_fifo_clamping () =
  (* First message has delay 1.0, second (sent later) would overtake with
     delay 0; the engine must clamp the second to the first's arrival. *)
  let sent = ref 0 in
  let delay =
    Delay.directed ~bound:1. (fun ~src:_ ~dst:_ ~now:_ ->
        incr sent;
        if !sent = 1 then 1.0 else 0.0)
  in
  let h =
    make ~delay ~initial_edges:[ (0, 1) ]
      ~on_init:(fun ctx i ->
        if i = 0 then begin
          Engine.send ctx ~dst:1 "first";
          Engine.set_timer ctx ~after:0.2 "t"
        end)
      ~on_timer:(fun ctx _ _ -> Engine.send ctx ~dst:1 "second")
      ()
  in
  Engine.run_until h.engine 5.;
  Alcotest.check feq "first at 1.0" 1.0 (time_of h "1:recv(0,first)");
  Alcotest.check feq "second clamped to 1.0" 1.0 (time_of h "1:recv(0,second)");
  let log = entries h in
  let order =
    List.filter_map
      (fun (_, e) -> if e = "1:recv(0,first)" || e = "1:recv(0,second)" then Some e else None)
      log
  in
  Alcotest.(check (list string)) "FIFO order" [ "1:recv(0,first)"; "1:recv(0,second)" ]
    order

let test_fifo_floor_not_inherited_across_epochs () =
  (* A message with delay 5 sets the link's FIFO floor to t=5, then the
     edge is removed (the message is dropped in flight) and re-added. A
     message sent on the new epoch with delay 0.1 must arrive at
     send-time + 0.1: the dead epoch's floor cannot delay it, because
     every in-flight message of that epoch is dropped at delivery and so
     nothing can be overtaken. *)
  let sent = ref 0 in
  let delay =
    Delay.directed ~bound:5. (fun ~src:_ ~dst:_ ~now:_ ->
        incr sent;
        if !sent = 1 then 5.0 else 0.1)
  in
  let h =
    make ~delay ~initial_edges:[ (0, 1) ]
      ~on_init:(fun ctx i ->
        if i = 0 then begin
          Engine.send ctx ~dst:1 "old-epoch";
          Engine.set_timer ctx ~after:3. "resend"
        end)
      ~on_timer:(fun ctx _ _ -> Engine.send ctx ~dst:1 "new-epoch")
      ()
  in
  Engine.schedule_edge_remove h.engine ~at:1. 0 1;
  Engine.schedule_edge_add h.engine ~at:2. 0 1;
  Engine.run_until h.engine 10.;
  Alcotest.(check bool) "old-epoch message dropped" false (has h "1:recv(0,old-epoch)");
  Alcotest.check feq "new-epoch message not delayed behind the dead floor" 3.1
    (time_of h "1:recv(0,new-epoch)")

let test_fifo_floor_kept_within_epoch () =
  (* Same shape but without the removal: the floor must still clamp. *)
  let sent = ref 0 in
  let delay =
    Delay.directed ~bound:5. (fun ~src:_ ~dst:_ ~now:_ ->
        incr sent;
        if !sent = 1 then 5.0 else 0.1)
  in
  let h =
    make ~delay ~initial_edges:[ (0, 1) ]
      ~on_init:(fun ctx i ->
        if i = 0 then begin
          Engine.send ctx ~dst:1 "first";
          Engine.set_timer ctx ~after:3. "resend"
        end)
      ~on_timer:(fun ctx _ _ -> Engine.send ctx ~dst:1 "second")
      ()
  in
  Engine.run_until h.engine 10.;
  Alcotest.check feq "first at 5.0" 5.0 (time_of h "1:recv(0,first)");
  Alcotest.check feq "second clamped to 5.0" 5.0 (time_of h "1:recv(0,second)")

let test_send_without_edge () =
  let trace = Trace.create () in
  let h =
    make ~trace ~discovery_lag:0.7
      ~on_init:(fun ctx i -> if i = 0 then Engine.send ctx ~dst:1 "lost")
      ()
  in
  Engine.run_until h.engine 5.;
  Alcotest.(check bool) "never received" false (has h "1:recv(0,lost)");
  Alcotest.(check int) "drop counted" 1 (Trace.count trace Trace.Drop_no_edge);
  Alcotest.check feq "sender learns absence within lag" 0.7 (time_of h "0:rem(1)")

let test_edge_add_discovery_lag () =
  let h = make ~discovery_lag:1.5 () in
  Engine.schedule_edge_add h.engine ~at:2. 0 1;
  Engine.run_until h.engine 10.;
  Alcotest.check feq "discovered at 3.5" 3.5 (time_of h "0:add(1)");
  Alcotest.check feq "both endpoints" 3.5 (time_of h "1:add(0)")

let test_in_flight_drop () =
  let trace = Trace.create () in
  (* Message sent at t=0 with delay 1.0; edge removed at t=0.5. *)
  let delay = Delay.constant ~bound:1. 1.0 in
  let h =
    make ~trace ~delay ~discovery_lag:0.25 ~initial_edges:[ (0, 1) ]
      ~on_init:(fun ctx i -> if i = 0 then Engine.send ctx ~dst:1 "doomed")
      ()
  in
  Engine.schedule_edge_remove h.engine ~at:0.5 0 1;
  Engine.run_until h.engine 5.;
  Alcotest.(check bool) "not delivered" false (has h "1:recv(0,doomed)");
  Alcotest.(check int) "in-flight drop" 1 (Trace.count trace Trace.Drop_in_flight);
  Alcotest.check feq "removal discovered" 0.75 (time_of h "0:rem(1)")

let test_transient_change_suppressed () =
  let trace = Trace.create () in
  let h = make ~trace ~discovery_lag:2. () in
  Engine.schedule_edge_add h.engine ~at:1. 0 1;
  Engine.schedule_edge_remove h.engine ~at:1.5 0 1;
  Engine.schedule_edge_add h.engine ~at:1.8 0 1;
  Engine.run_until h.engine 10.;
  (* Only the final add (epoch 3) is discovered, at 1.8 + 2. *)
  let adds = List.filter (fun (_, e) -> e = "0:add(1)") (entries h) in
  Alcotest.(check int) "one discovery" 1 (List.length adds);
  Alcotest.check feq "at 3.8" 3.8 (time_of h "0:add(1)");
  Alcotest.(check bool) "no remove discovery" false (has h "0:rem(1)");
  Alcotest.(check int) "stale discoveries suppressed" 4
    (Trace.count trace Trace.Discover_stale)

let test_subjective_timer () =
  (* Node 0 runs at rate 1.25: a subjective 2.5 elapses at real time 2.0. *)
  let clocks = [| Hwclock.constant 1.25; Hwclock.perfect |] in
  let h =
    make ~clocks:(Some clocks)
      ~on_init:(fun ctx i -> if i = 0 then Engine.set_timer ctx ~after:2.5 "alarm")
      ()
  in
  Engine.run_until h.engine 5.;
  Alcotest.check feq "fires at real 2.0" 2.0 (time_of h "0:timer(alarm)")

let test_timer_cancellation () =
  let h =
    make
      ~on_init:(fun ctx i ->
        if i = 0 then begin
          Engine.set_timer ctx ~after:1. "a";
          Engine.set_timer ctx ~after:2. "b";
          Engine.cancel_timer ctx "a"
        end)
      ()
  in
  Engine.run_until h.engine 5.;
  Alcotest.(check bool) "a cancelled" false (has h "0:timer(a)");
  Alcotest.(check bool) "b fires" true (has h "0:timer(b)")

let test_timer_rearm_supersedes () =
  let h =
    make
      ~on_init:(fun ctx i ->
        if i = 0 then begin
          Engine.set_timer ctx ~after:1. "t";
          Engine.set_timer ctx ~after:3. "t"
        end)
      ()
  in
  Engine.run_until h.engine 5.;
  let fires = List.filter (fun (_, e) -> e = "0:timer(t)") (entries h) in
  Alcotest.(check int) "fires once" 1 (List.length fires);
  Alcotest.check feq "at the re-armed time" 3. (time_of h "0:timer(t)")

let test_periodic_timer_chain () =
  let count = ref 0 in
  let h =
    make
      ~on_init:(fun ctx i -> if i = 0 then Engine.set_timer ctx ~after:1. "tick")
      ~on_timer:(fun ctx _ _ ->
        incr count;
        if !count < 5 then Engine.set_timer ctx ~after:1. "tick")
      ()
  in
  Engine.run_until h.engine 100.;
  Alcotest.(check int) "five ticks" 5 !count

(* A timer whose wheel granule is past the int range must wait like any
   far-future timer: surfacing it at once would hold the wheel's cursor
   back, so no earlier timer could fire. *)
let test_far_future_timer_does_not_starve () =
  let h =
    make
      ~on_init:(fun ctx i ->
        if i = 0 then begin
          Engine.set_timer ctx ~after:1e19 "far";
          Engine.set_timer ctx ~after:1. "near"
        end)
      ()
  in
  Engine.run_until h.engine 5.;
  Alcotest.check feq "near fires at 1" 1. (time_of h "0:timer(near)");
  Alcotest.(check bool) "far waits" false (has h "0:timer(far)");
  Alcotest.(check int) "far stays armed" 1 (Engine.live_timers h.engine)

(* A NaN or infinite delay is refused before any bookkeeping: no live
   timer is counted and nothing is left behind to fire or go stale. *)
let test_non_finite_delay_rejected () =
  let refused = ref [] in
  let h =
    make
      ~on_init:(fun ctx i ->
        if i = 0 then
          List.iter
            (fun after ->
              try Engine.set_timer ctx ~after "bad"
              with Invalid_argument msg -> refused := msg :: !refused)
            [ Float.nan; infinity ])
      ()
  in
  Engine.run_until h.engine 5.;
  Alcotest.(check int) "no live timer" 0 (Engine.live_timers h.engine);
  Alcotest.(check int) "nothing pending" 0 (Engine.pending_events h.engine);
  Alcotest.(check bool) "never fires" false (has h "0:timer(bad)");
  Alcotest.(check (list string)) "refused by name"
    [ "Engine.set_timer: non-finite delay"; "Engine.set_timer: non-finite delay" ]
    !refused

(* A non-finite time is refused by the engine entry point that was
   given it, before anything is queued. *)
let test_non_finite_time_rejected () =
  let h = make ~initial_edges:[ (0, 1) ] () in
  let before = Engine.pending_events h.engine in
  Alcotest.check_raises "at nan" (Invalid_argument "Engine.at: non-finite time")
    (fun () -> Engine.at h.engine ~time:Float.nan ignore);
  Alcotest.check_raises "edge add at infinity"
    (Invalid_argument "Engine.schedule_edge_add: non-finite time") (fun () ->
      Engine.schedule_edge_add h.engine ~at:infinity 0 1);
  Alcotest.check_raises "edge remove at nan"
    (Invalid_argument "Engine.schedule_edge_remove: non-finite time") (fun () ->
      Engine.schedule_edge_remove h.engine ~at:Float.nan 0 1);
  Alcotest.(check int) "nothing queued" before (Engine.pending_events h.engine)

(* A NaN horizon must not become the engine's clock: every later time
   would then compare as not in the past. *)
let test_run_until_nan () =
  let h = make () in
  Engine.run_until h.engine 4.;
  Alcotest.check_raises "nan horizon"
    (Invalid_argument "Engine.run_until: NaN horizon") (fun () ->
      Engine.run_until h.engine Float.nan);
  Alcotest.check feq "now unchanged" 4. (Engine.now h.engine);
  Alcotest.check_raises "the past is still the past"
    (Invalid_argument "Engine: cannot schedule in the past") (fun () ->
      Engine.at h.engine ~time:3. ignore)

(* A NaN delay draw is out of range like any other bad draw: clamped to
   0 and traced, so the send has its delivery. *)
let test_nan_delay_clamped () =
  let trace = Trace.create () in
  let h =
    make ~initial_edges:[ (0, 1) ] ~trace
      ~delay:(Delay.directed ~bound:1. (fun ~src:_ ~dst:_ ~now:_ -> Float.nan))
      ~on_init:(fun ctx i -> if i = 0 then Engine.send ctx ~dst:1 "hi")
      ()
  in
  Engine.run_until h.engine 5.;
  Alcotest.check feq "delivered at once" 0. (time_of h "1:recv(0,hi)");
  Alcotest.(check int) "clamp traced" 1 (Trace.count trace Trace.Delay_clamped)

let test_callback () =
  let h = make () in
  let hits = ref [] in
  Engine.at h.engine ~time:2.5 (fun () -> hits := Engine.now h.engine :: !hits);
  Engine.at h.engine ~time:1.5 (fun () -> hits := Engine.now h.engine :: !hits);
  Engine.run_until h.engine 10.;
  Alcotest.(check (list (float 1e-9))) "both in order" [ 1.5; 2.5 ] (List.rev !hits)

let test_run_until_advances_now () =
  let h = make () in
  Engine.run_until h.engine 4.;
  Alcotest.check feq "now" 4. (Engine.now h.engine);
  Alcotest.check_raises "cannot go back"
    (Invalid_argument "Engine.run_until: horizon in the past") (fun () ->
      Engine.run_until h.engine 3.)

let test_bad_destination () =
  let h =
    make
      ~on_init:(fun ctx i ->
        if i = 0 then
          Alcotest.check_raises "self-send" (Invalid_argument "Engine.send: bad destination")
            (fun () -> Engine.send ctx ~dst:0 "oops"))
      ()
  in
  Engine.run_until h.engine 1.

(* Edge endpoints are checked where the edge is scheduled, at every
   shard count: an id outside [0, n) or a self-loop raises at the call,
   naming the function and the pair, and nothing is queued. *)
let test_bad_edge_endpoints () =
  List.iter
    (fun shards ->
      let engine =
        Engine.create
          ~clocks:(Array.make 4 Hwclock.perfect)
          ~delay:(Delay.constant ~bound:1. 0.5) ~shards
          ~timer_label:(fun () -> 0) ()
      in
      let before = Engine.pending_events engine in
      List.iter
        (fun (name, schedule) ->
          List.iter
            (fun (u, v) ->
              Alcotest.check_raises
                (Printf.sprintf "%s (%d, %d) at %d shards" name u v shards)
                (Invalid_argument
                   (Printf.sprintf "Engine.%s: bad edge (%d, %d) over 4 nodes"
                      name u v))
                (fun () -> schedule engine ~at:1. u v);
              Alcotest.(check int)
                (Printf.sprintf "%s (%d, %d) queued nothing" name u v)
                before
                (Engine.pending_events engine))
            [ (-1, 3); (2, 9); (2, 2) ])
        [
          ("schedule_edge_add", Engine.schedule_edge_add);
          ("schedule_edge_remove", Engine.schedule_edge_remove);
        ])
    [ 1; 2 ]

let test_determinism () =
  let build () =
    let trace = Trace.create () in
    let h =
      make ~trace ~initial_edges:[ (0, 1) ]
        ~on_init:(fun ctx i ->
          if i = 0 then Engine.set_timer ctx ~after:1. "tick")
        ~on_timer:(fun ctx _ _ ->
          Engine.send ctx ~dst:1 "m";
          Engine.set_timer ctx ~after:1. "tick")
        ()
    in
    Engine.schedule_edge_remove h.engine ~at:5.2 0 1;
    Engine.schedule_edge_add h.engine ~at:7.9 0 1;
    Engine.run_until h.engine 20.;
    (entries h, Trace.total trace)
  in
  let a = build () and b = build () in
  Alcotest.(check bool) "identical logs" true (fst a = fst b);
  Alcotest.(check int) "identical trace totals" (snd a) (snd b)

let test_graph_view () =
  let h = make ~initial_edges:[ (0, 1) ] () in
  Engine.schedule_edge_remove h.engine ~at:1. 0 1;
  Engine.run_until h.engine 0.5;
  Alcotest.(check bool) "edge present" true (Dsim.Dyngraph.has_edge (Engine.graph h.engine) 0 1);
  Engine.run_until h.engine 2.;
  Alcotest.(check bool) "edge gone" false (Dsim.Dyngraph.has_edge (Engine.graph h.engine) 0 1)

let test_absence_notifications_coalesce () =
  let trace = Trace.create () in
  let h =
    make ~trace ~discovery_lag:1.
      ~on_init:(fun ctx i ->
        if i = 0 then begin
          (* Three failed sends in a burst: one notification. *)
          Engine.send ctx ~dst:1 "a";
          Engine.send ctx ~dst:1 "b";
          Engine.send ctx ~dst:1 "c"
        end)
      ()
  in
  Engine.run_until h.engine 5.;
  let removes = List.filter (fun (_, e) -> e = "0:rem(1)") (entries h) in
  Alcotest.(check int) "coalesced to one notification" 1 (List.length removes);
  Alcotest.(check int) "three drops counted" 3 (Trace.count trace Trace.Drop_no_edge)

(* The engine keeps armed timers as int labels and hands [on_timer] the
   value it first saw under the label back. With the interned string
   labels above, every fire must log the very string that was armed,
   including for a label re-armed, and for one cancelled and armed
   again. *)
let test_timer_values_by_label () =
  let h =
    make
      ~on_init:(fun ctx i ->
        if i = 0 then begin
          Engine.set_timer ctx ~after:1. "a";
          Engine.set_timer ctx ~after:2. "b";
          Engine.set_timer ctx ~after:3. "a";
          Engine.cancel_timer ctx "b";
          Engine.set_timer ctx ~after:4. "b";
          Engine.set_timer ctx ~after:5. "c"
        end
        else Engine.set_timer ctx ~after:6. "a")
      ()
  in
  Engine.run_until h.engine 10.;
  Alcotest.(check (list (pair (float 1e-9) string)))
    "each fire carries its armed value"
    [ (3., "0:timer(a)"); (4., "0:timer(b)"); (5., "0:timer(c)"); (6., "1:timer(a)") ]
    (List.filter (fun (_, e) -> String.contains e '(' && String.sub e 2 5 = "timer")
       (entries h))

(* The negative label is refused before any bookkeeping changes: an
   engine that saw the refused arm then runs a later arm exactly like one
   that never saw it. *)
let test_negative_label_rejected () =
  let run ~refuse =
    let engine =
      Engine.create ~clocks:[| Hwclock.perfect; Hwclock.perfect |]
        ~delay:(Delay.constant ~bound:1. 0.5) ~timer_label:(fun l -> l) ()
    in
    let ctx0 = ref None and fired = ref [] in
    for i = 0 to 1 do
      Engine.install engine i (fun ctx ->
          if i = 0 then ctx0 := Some ctx;
          {
            Engine.on_init = (fun () -> ());
            on_discover_add = (fun _ -> ());
            on_discover_remove = (fun _ -> ());
            on_receive = (fun _ () -> ());
            on_timer = (fun l -> fired := (Engine.now engine, l) :: !fired);
          })
    done;
    let ctx = Option.get !ctx0 in
    if refuse then
      Alcotest.check_raises "negative label"
        (Invalid_argument "Engine.set_timer: negative timer label") (fun () ->
          Engine.set_timer ctx ~after:1. (-1));
    let footprint = Engine.footprint_words engine in
    let live = Engine.live_timers engine in
    Engine.set_timer ctx ~after:1. 3;
    Engine.set_timer ctx ~after:2. 3;
    Engine.run_until engine 5.;
    (footprint, live, List.rev !fired, Engine.events_processed engine)
  in
  let f, live, fired, events = run ~refuse:true
  and f', live', fired', events' = run ~refuse:false in
  Alcotest.(check int) "nothing armed" 0 live;
  Alcotest.(check int) "no storage" f' f;
  Alcotest.(check int) "live as without it" live' live;
  Alcotest.(check (list (pair (float 1e-9) int))) "later arms fire as without it" fired' fired;
  Alcotest.(check (list (pair (float 1e-9) int))) "the re-arm wins" [ (2., 3) ] fired;
  Alcotest.(check int) "events as without it" events' events

(* The per-node stores start as one shared empty sentinel each and get
   their own record on a node's first insert. A first insert written into
   the sentinel would show up in every other node's store; each case
   below would see that. *)
let test_lazy_armed_store_private () =
  let h =
    make ~n:3
      ~on_init:(fun ctx i ->
        if i = 0 then Engine.set_timer ctx ~after:1. "x"
        else if i = 1 then Engine.cancel_timer ctx "x")
      ()
  in
  Engine.run_until h.engine 0.5;
  Alcotest.(check int) "one live timer" 1 (Engine.live_timers h.engine);
  Engine.run_until h.engine 5.;
  Alcotest.(check bool) "node 0's timer fires" true (has h "0:timer(x)");
  Alcotest.(check bool) "node 2 has none" false (has h "2:timer(x)")

let test_lazy_fifo_store_private () =
  (* Node 0's message to 1 takes 0.9, node 2's takes 0.1: both edges are
     at epoch 1, so a shared FIFO store would floor node 2's delivery at
     node 0's. *)
  let delay =
    Delay.directed ~bound:1. (fun ~src ~dst:_ ~now:_ -> if src = 0 then 0.9 else 0.1)
  in
  let h =
    make ~n:3 ~delay ~initial_edges:[ (0, 1); (1, 2) ]
      ~on_init:(fun ctx i -> if i <> 1 then Engine.send ctx ~dst:1 (string_of_int i))
      ()
  in
  Engine.run_until h.engine 5.;
  Alcotest.check feq "node 0's message" 0.9 (time_of h "1:recv(0,0)");
  Alcotest.check feq "node 2's message" 0.1 (time_of h "1:recv(2,2)")

let test_lazy_absence_store_private () =
  let h =
    make ~n:3 ~discovery_lag:1.
      ~on_init:(fun ctx i -> if i <> 1 then Engine.send ctx ~dst:1 "m")
      ()
  in
  Engine.run_until h.engine 5.;
  Alcotest.check feq "node 0 learns the absence" 1. (time_of h "0:rem(1)");
  Alcotest.check feq "node 2 learns the absence" 1. (time_of h "2:rem(1)")

let prop_proto_label_round_trip =
  let open Gcs.Proto in
  QCheck.Test.make ~name:"Proto.timer_of_label inverts timer_label" ~count:500
    QCheck.(option (int_bound 1_000_000))
    (fun o ->
      let x = match o with None -> Tick | Some v -> Lost v in
      timer_of_label (timer_label x) = x)

let test_same_time_add_then_remove () =
  (* Scheduled in this order at the same instant, the sequence number
     orders them deterministically: add then remove leaves the edge
     absent (and the paper forbids relying on simultaneous changes). *)
  let h = make ~discovery_lag:0.5 () in
  Engine.schedule_edge_add h.engine ~at:2. 0 1;
  Engine.schedule_edge_remove h.engine ~at:2. 0 1;
  Engine.run_until h.engine 5.;
  Alcotest.(check bool) "edge absent" false
    (Dsim.Dyngraph.has_edge (Engine.graph h.engine) 0 1);
  (* Both changes were transient/superseded: only the final (remove)
     discovery can fire, and handlers see a remove for an edge they never
     knew — harmless. *)
  Alcotest.(check bool) "no add discovery" false (has h "0:add(1)")

let test_zero_delay_timer () =
  let h =
    make ~on_init:(fun ctx i -> if i = 0 then Engine.set_timer ctx ~after:0. "now") ()
  in
  Engine.run_until h.engine 1.;
  Alcotest.check feq "fires at once" 0. (time_of h "0:timer(now)")

(* Regression for the stale-timer leak: every cancel or re-arm used to
   leave a dead heap slot that inflated pending_events until its old
   deadline and was then dispatched (and counted) as a no-op. Stale
   entries must be invisible to pending_events, discarded rather than
   dispatched, and excluded from events_processed. *)
let test_stale_timers_not_counted () =
  let trace = Trace.create () in
  let rearms = 50 in
  let h =
    make ~trace
      ~on_init:(fun ctx i ->
        if i = 0 then begin
          (* cancel churn: arm and immediately cancel *)
          for _ = 1 to rearms do
            Engine.set_timer ctx ~after:100. "lost";
            Engine.cancel_timer ctx "lost"
          done;
          (* re-arm churn: each set supersedes the previous *)
          for _ = 1 to rearms do
            Engine.set_timer ctx ~after:50. "beat"
          done
        end)
      ()
  in
  (* After init (t=10 < both deadlines): only the one live "beat" timer
     is actually pending, despite the 100 stale heap slots behind it. *)
  Engine.run_until h.engine 10.;
  Alcotest.(check int) "one live timer" 1 (Engine.live_timers h.engine);
  Alcotest.(check int) "pending sees through stale entries" 1
    (Engine.pending_events h.engine);
  Engine.run_until h.engine 200.;
  let fires = List.filter (fun (_, e) -> e = "0:timer(beat)") (entries h) in
  Alcotest.(check int) "beat fires once" 1 (List.length fires);
  Alcotest.(check bool) "lost never fires" false (has h "0:timer(lost)");
  Alcotest.(check int) "no live timers left" 0 (Engine.live_timers h.engine);
  Alcotest.(check int) "queue drained" 0 (Engine.pending_events h.engine);
  (* The single real timer fire; the stale entries are traced but not
     processed. *)
  Alcotest.(check int) "stale entries excluded from events_processed" 1
    (Engine.events_processed h.engine);
  Alcotest.(check int) "stale discards traced"
    (2 * rearms - 1)
    (Trace.count trace Trace.Timer_stale)

let test_event_counters () =
  let h =
    make ~initial_edges:[ (0, 1) ]
      ~on_init:(fun ctx i -> if i = 0 then Engine.send ctx ~dst:1 "m")
      ()
  in
  Alcotest.(check int) "nothing processed yet" 0 (Engine.events_processed h.engine);
  Engine.run_until h.engine 5.;
  Alcotest.(check bool) "events processed" true (Engine.events_processed h.engine >= 3);
  Alcotest.(check int) "queue drained" 0 (Engine.pending_events h.engine)

(* Property: whatever delays the policy draws, each directed link delivers
   in send order and within [0, bound] of the send time (after clamping). *)
let prop_fifo_random_delays =
  QCheck.Test.make ~name:"FIFO delivery under random delays" ~count:100
    QCheck.(pair (int_range 0 1000) (int_range 2 20))
    (fun (seed, burst) ->
      let prng = Dsim.Prng.of_int seed in
      let delay = Delay.uniform prng ~bound:1. in
      let received = ref [] in
      let engine =
        (Engine.create
           ~clocks:[| Hwclock.perfect; Hwclock.perfect |]
           ~delay ~initial_edges:[ (0, 1) ] ~timer_label:label ()
          : (int, string) Engine.t)
      in
      Engine.install engine 0 (fun ctx ->
          {
            Engine.on_init =
              (fun () ->
                for i = 1 to burst do
                  Engine.send ctx ~dst:1 i
                done;
                Engine.set_timer ctx ~after:0.3 "again");
            on_discover_add = ignore;
            on_discover_remove = ignore;
            on_receive = (fun _ _ -> ());
            on_timer =
              (fun _ ->
                for i = burst + 1 to 2 * burst do
                  Engine.send ctx ~dst:1 i
                done);
          });
      Engine.install engine 1 (fun _ ->
          {
            Engine.on_init = ignore;
            on_discover_add = ignore;
            on_discover_remove = ignore;
            on_receive = (fun _ i -> received := i :: !received);
            on_timer = ignore;
          });
      Engine.run_until engine 10.;
      List.rev !received = List.init (2 * burst) (fun i -> i + 1))

(* A bare engine over [n + grow] nodes, all installed before the run,
   whose receive events are logged as (time, src, dst, msg). The
   regressions below wire ids at and beyond [n] to the first [n] with
   edges scheduled at time 0; the [make] harness has no receive log. *)
let make_grown ~n ~grow ~delay =
  let clocks = Array.init (n + grow) (fun _ -> Hwclock.perfect) in
  let engine = Engine.create ~clocks ~delay ~timer_label:(fun () -> 0) () in
  let log = ref [] in
  let ctxs = Hashtbl.create 16 in
  for i = 0 to n + grow - 1 do
    Engine.install engine i (fun ctx ->
        Hashtbl.replace ctxs i ctx;
        {
          Engine.on_init = (fun () -> ());
          on_discover_add = (fun _ -> ());
          on_discover_remove = (fun _ -> ());
          on_receive =
            (fun src msg -> log := (Engine.now engine, src, i, msg) :: !log);
          on_timer = (fun _ -> ());
        })
  done;
  (engine, log, fun i -> Hashtbl.find ctxs i)

(* Distinct links must get distinct FIFO keys. The retired encoding
   packed the pair (src, dst) as [src * n + dst] with [n] taken from a
   count smaller than the id range, so distinct pairs aliased — with
   n = 4, (1, 7) and (2, 3) both packed to 11, and a slow in-flight
   message on one link dragged the other link's FIFO floor up and
   delayed an unrelated delivery. Keying by destination inside a
   per-source store makes ids collision-free by construction; this pins
   the exact aliasing pair. *)
let test_join_no_pair_key_collision () =
  let delay =
    Delay.directed ~bound:1.0 (fun ~src ~dst ~now:_ ->
        if src = 1 && dst = 7 then 0.9 else 0.1)
  in
  let engine, log, ctx = make_grown ~n:4 ~grow:4 ~delay in
  Engine.schedule_edge_add engine ~at:0. 1 7;
  Engine.schedule_edge_add engine ~at:0. 2 3;
  Engine.at engine ~time:1. (fun () ->
      (* The slow (1 -> 7) message first: under aliased keys its arrival
         at t=1.9 becomes (2, 3)'s FIFO floor too. *)
      Engine.send (ctx 1) ~dst:7 "slow";
      Engine.send (ctx 2) ~dst:3 "fast");
  Engine.run_until engine 3.;
  let find msg =
    match List.find_opt (fun (_, _, _, m) -> m = msg) !log with
    | Some (t, src, dst, _) -> (t, src, dst)
    | None -> Alcotest.failf "message %S never delivered" msg
  in
  Alcotest.(check (triple feq int int)) "slow delivery" (1.9, 1, 7) (find "slow");
  Alcotest.(check (triple feq int int)) "fast delivery" (1.1, 2, 3) (find "fast")

(* Edge-heavy churn: wire node 0 to each of the 15 other nodes, and
   check each link keeps per-link FIFO order under a delay policy that
   begs for clamping (later messages drawn faster than earlier ones).
   Crossing 4 then 8 destinations per source also drags each per-source
   FIFO store through its growth seam (capacity 4 -> 8 -> 16) with live
   floors in it. *)
let test_join_churn_fifo_order () =
  let delay =
    (* Round 0 (sent at t=1) draws the full bound; later rounds draw a
       near-zero delay, so every link's later messages would overtake
       round 0 and must clamp behind its arrival instead. *)
    Delay.directed ~bound:1.0 (fun ~src:_ ~dst:_ ~now ->
        if now < 1.1 then 1.0 else 0.05)
  in
  let seed = 4 and grow = 12 in
  let engine, log, ctx = make_grown ~n:seed ~grow ~delay in
  (* Star: node 0 reaches every other node. *)
  for v = 1 to seed + grow - 1 do
    Engine.schedule_edge_add engine ~at:0. 0 v
  done;
  for round = 0 to 2 do
    Engine.at engine
      ~time:(1. +. (0.3 *. float_of_int round))
      (fun () ->
        for v = 1 to seed + grow - 1 do
          Engine.send (ctx 0) ~dst:v (Printf.sprintf "%d:%d" v round)
        done)
  done;
  Engine.run_until engine 5.;
  (* Per destination, rounds must arrive in send order. *)
  for v = 1 to seed + grow - 1 do
    let arrivals =
      List.rev !log
      |> List.filter_map (fun (t, src, dst, msg) ->
             if src = 0 && dst = v then Some (t, msg) else None)
    in
    let rounds = List.map (fun (_, m) -> Scanf.sscanf m "%d:%d" (fun _ r -> r)) arrivals in
    Alcotest.(check (list int))
      (Printf.sprintf "link 0->%d FIFO order" v)
      [ 0; 1; 2 ] rounds;
    let times = List.map fst arrivals in
    Alcotest.(check bool)
      (Printf.sprintf "link 0->%d non-decreasing arrivals" v)
      true
      (List.sort compare times = times)
  done

(* Engine storage must grow as O(n + live edges), not O(n^2): quadrupling
   the node count of a ring (edges = n) may grow the footprint by ~4x.
   The pre-rework engine kept pair-keyed arrays that made this 16x. The
   check runs after a burst of traffic so FIFO floors, armed timers and
   queue capacities are all warm. *)
let test_footprint_linear_in_n () =
  let footprint n =
    let delay = Delay.constant ~bound:1. 0.5 in
    let clocks = Array.init n (fun _ -> Hwclock.perfect) in
    let engine =
      Engine.create ~clocks ~delay ~initial_edges:(Topology.Static.ring n)
        ~timer_label:(fun () -> 0) ()
    in
    let ctxs = Array.make n None in
    for i = 0 to n - 1 do
      Engine.install engine i (fun ctx ->
          ctxs.(i) <- Some ctx;
          {
            Engine.on_init = (fun () -> ());
            on_discover_add = (fun _ -> ());
            on_discover_remove = (fun _ -> ());
            on_receive = (fun _ _ -> ());
            on_timer = (fun _ -> ());
          })
    done;
    (* Every node pings both ring neighbours to warm FIFO stores. *)
    Engine.at engine ~time:1. (fun () ->
        Array.iteri
          (fun i -> function
            | Some ctx ->
              Engine.send ctx ~dst:((i + 1) mod n) ();
              Engine.send ctx ~dst:((i + n - 1) mod n) ()
            | None -> ())
          ctxs);
    Engine.run_until engine 3.;
    Engine.footprint_words engine
  in
  let f1 = footprint 256 and f4 = footprint 1024 in
  let ratio = float_of_int f4 /. float_of_int f1 in
  Alcotest.(check bool)
    (Printf.sprintf "footprint 256 -> 1024 grew %.2fx (must be < 8, O(n^2) gives ~16)"
       ratio)
    true (ratio < 8.)

let suite =
  [
    case "message delivery" test_delivery;
    case "joined pair keys cannot collide" test_join_no_pair_key_collision;
    case "join-heavy churn keeps per-link FIFO" test_join_churn_fifo_order;
    case "footprint grows O(n), not O(n^2)" test_footprint_linear_in_n;
    QCheck_alcotest.to_alcotest prop_fifo_random_delays;
    case "absence notifications coalesce" test_absence_notifications_coalesce;
    case "same-time add then remove" test_same_time_add_then_remove;
    case "zero-delay timer" test_zero_delay_timer;
    case "event counters" test_event_counters;
    case "stale timers not counted" test_stale_timers_not_counted;
    case "initial edges discovered at 0" test_initial_discovery_at_zero;
    case "FIFO clamping" test_fifo_clamping;
    case "FIFO floor dies with its epoch" test_fifo_floor_not_inherited_across_epochs;
    case "FIFO floor persists within an epoch" test_fifo_floor_kept_within_epoch;
    case "send without edge" test_send_without_edge;
    case "edge-add discovery lag" test_edge_add_discovery_lag;
    case "in-flight drop on removal" test_in_flight_drop;
    case "transient changes suppressed" test_transient_change_suppressed;
    case "subjective timers follow drift" test_subjective_timer;
    case "timer cancellation" test_timer_cancellation;
    case "timer re-arm supersedes" test_timer_rearm_supersedes;
    case "timer values come back by label" test_timer_values_by_label;
    case "negative timer label rejected" test_negative_label_rejected;
    case "first armed timer stays private" test_lazy_armed_store_private;
    case "first FIFO floor stays private" test_lazy_fifo_store_private;
    case "first absence notice stays private" test_lazy_absence_store_private;
    QCheck_alcotest.to_alcotest prop_proto_label_round_trip;
    case "periodic timer chain" test_periodic_timer_chain;
    case "far-future timer does not starve" test_far_future_timer_does_not_starve;
    case "non-finite timer delay rejected" test_non_finite_delay_rejected;
    case "non-finite times rejected at the call" test_non_finite_time_rejected;
    case "NaN horizon rejected" test_run_until_nan;
    case "NaN delay draw clamped and traced" test_nan_delay_clamped;
    case "scheduled callbacks" test_callback;
    case "run_until advances time" test_run_until_advances_now;
    case "bad destination rejected" test_bad_destination;
    case "bad edge endpoints rejected at the call" test_bad_edge_endpoints;
    case "determinism" test_determinism;
    case "graph view tracks schedule" test_graph_view;
  ]
