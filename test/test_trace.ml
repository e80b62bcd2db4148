module Trace = Dsim.Trace
module Engine = Dsim.Engine
module Hwclock = Dsim.Hwclock
module Delay = Dsim.Delay

let case name f = Alcotest.test_case name `Quick f

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_counters () =
  let t = Trace.create () in
  Trace.record t ~time:0. Trace.Send 0 1 (-1);
  Trace.record t ~time:1. Trace.Send 1 0 (-1);
  Trace.record t ~time:2. Trace.Deliver 0 1 3;
  Alcotest.(check int) "sends" 2 (Trace.count t Trace.Send);
  Alcotest.(check int) "delivers" 1 (Trace.count t Trace.Deliver);
  Alcotest.(check int) "drops" 0 (Trace.count t Trace.Drop_no_edge);
  Alcotest.(check int) "total" 3 (Trace.total t)

let test_log_disabled_by_default () =
  let t = Trace.create () in
  Trace.record t ~time:0. Trace.Send 0 1 (-1);
  Alcotest.(check int) "no entries retained" 0 (List.length (Trace.entries t))

let test_log_limit () =
  let t = Trace.create ~log_limit:2 () in
  Trace.record t ~time:0. Trace.Send 0 1 (-1);
  Trace.record t ~time:1. Trace.Send 0 2 (-1);
  Trace.record t ~time:2. Trace.Send 0 3 (-1);
  let entries = Trace.entries t in
  Alcotest.(check int) "capped at 2" 2 (List.length entries);
  Alcotest.(check (list string)) "oldest first" [ "0->1"; "0->2" ]
    (List.map Trace.detail entries);
  Alcotest.(check int) "counter still 3" 3 (Trace.count t Trace.Send)

let test_detail_formats () =
  let e time kind a b c = { Trace.time; kind; a; b; c } in
  Alcotest.(check string) "send" "3->4" (Trace.detail (e 0. Trace.Send 3 4 (-1)));
  Alcotest.(check string) "edge" "{0,1}" (Trace.detail (e 0. Trace.Edge_add 0 1 (-1)));
  Alcotest.(check string) "discover" "2:{2,5}"
    (Trace.detail (e 0. Trace.Discover_add 2 5 7));
  Alcotest.(check string) "timer" "6" (Trace.detail (e 0. Trace.Timer_fire 6 (-1) (-1)))

let test_kind_names_distinct () =
  let names = List.map Trace.kind_to_string Trace.all_kinds in
  Alcotest.(check int) "all distinct" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_summary_prints () =
  let t = Trace.create () in
  Trace.record t ~time:0. Trace.Send 0 1 (-1);
  let s = Format.asprintf "%a" Trace.pp_summary t in
  Alcotest.(check bool) "mentions send" true (contains s "send");
  Alcotest.(check bool) "omits zero counters" false (contains s "deliver")

let test_to_csv () =
  let t = Trace.create ~log_limit:10 () in
  Trace.record t ~time:0.25 Trace.Send 0 1 (-1);
  Trace.record t ~time:1.5 Trace.Deliver 0 1 2;
  let csv = Trace.to_csv t in
  Alcotest.(check bool) "header" true (contains csv "time,kind,a,b,c");
  Alcotest.(check bool) "send row" true (contains csv "0.25,send,0,1,-1");
  Alcotest.(check bool) "deliver row" true (contains csv "1.5,deliver,0,1,2")

let test_printing_consumer () =
  let buf = Buffer.create 64 in
  let sink = Format.formatter_of_buffer buf in
  let t = Trace.create ~on_entry:(Format.fprintf sink "%a@." Trace.pp_entry) () in
  Trace.record t ~time:0.5 Trace.Send 0 1 (-1);
  let s = Buffer.contents buf in
  Alcotest.(check bool) "printed" true (contains s "send");
  Alcotest.(check bool) "detail" true (contains s "0->1");
  Alcotest.(check int) "nothing retained" 0 (List.length (Trace.entries t))

(* The consumer sees every record, in order, whatever the log's cap: an
   audit fed by it no longer depends on the cap. *)
let test_consumer_sees_past_log_limit () =
  let seen = ref [] in
  let t = Trace.create ~log_limit:2 ~on_entry:(fun e -> seen := e :: !seen) () in
  for i = 0 to 9 do
    Trace.record t ~time:(float_of_int i) Trace.Send 0 i (-1)
  done;
  Alcotest.(check (list int)) "consumer saw all 10 in order" (List.init 10 Fun.id)
    (List.rev_map (fun e -> e.Trace.b) !seen);
  Alcotest.(check int) "log kept 2" 2 (List.length (Trace.entries t))

(* Turning the log or a consumer on must not change what is counted —
   same workload, same counters, with or without retention. *)
let test_counters_match_on_vs_off () =
  let run trace =
    let engine =
      (Engine.create
         ~clocks:[| Hwclock.perfect; Hwclock.perfect; Hwclock.perfect |]
         ~delay:(Delay.constant ~bound:1. 0.5)
         ~discovery_lag:0.25
         ~initial_edges:[ (0, 1); (1, 2) ]
         ~trace ~timer_label:(fun _ -> 0) ()
        : (int, string) Engine.t)
    in
    for i = 0 to 2 do
      Engine.install engine i (fun ctx ->
          {
            Engine.on_init = (fun () -> Engine.set_timer ctx ~after:1. "tick");
            on_discover_add = ignore;
            on_discover_remove = ignore;
            on_receive = (fun _ _ -> ());
            on_timer =
              (fun _ ->
                List.iter
                  (fun dst ->
                    if dst <> Engine.node_id ctx then Engine.send ctx ~dst 7)
                  [ 0; 1; 2 ];
                Engine.set_timer ctx ~after:1. "tick");
          })
    done;
    Engine.schedule_edge_remove engine ~at:3.4 0 1;
    Engine.schedule_edge_add engine ~at:5.1 0 1;
    Engine.run_until engine 10.
  in
  let off = Dsim.Trace.create () in
  let on = Dsim.Trace.create ~log_limit:100_000 () in
  let consumed = ref 0 in
  let consumer = Dsim.Trace.create ~on_entry:(fun _ -> incr consumed) () in
  run off;
  run on;
  run consumer;
  List.iter
    (fun k ->
      let name = Trace.kind_to_string k in
      Alcotest.(check int) ("log on: counter " ^ name) (Trace.count off k) (Trace.count on k);
      Alcotest.(check int) ("consumer on: counter " ^ name) (Trace.count off k)
        (Trace.count consumer k))
    Trace.all_kinds;
  Alcotest.(check bool) "log actually retained entries" true
    (List.length (Trace.entries on) > 0);
  Alcotest.(check int) "entries bounded by total" (Trace.total on)
    (List.length (Trace.entries on));
  Alcotest.(check int) "consumer saw every record" (Trace.total consumer) !consumed;
  Alcotest.(check int) "consumer kept no log" 0 (List.length (Trace.entries consumer))

let suite =
  [
    case "counters" test_counters;
    case "log disabled by default" test_log_disabled_by_default;
    case "log limit" test_log_limit;
    case "detail formats" test_detail_formats;
    case "kind names distinct" test_kind_names_distinct;
    case "summary printing" test_summary_prints;
    case "entries to csv" test_to_csv;
    case "printing consumer" test_printing_consumer;
    case "consumer sees records past the log limit" test_consumer_sees_past_log_limit;
    case "counters identical with log on vs off" test_counters_match_on_vs_off;
  ]
