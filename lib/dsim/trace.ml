type kind =
  | Send
  | Deliver
  | Drop_no_edge
  | Drop_in_flight
  | Drop_lossy
  | Edge_add
  | Edge_remove
  | Discover_add
  | Discover_remove
  | Discover_stale
  | Timer_fire
  | Timer_stale
  | Fault_crash
  | Fault_restart
  | Fault_corrupt
  | Fault_byzantine_msg
  | Fault_duplicate
  | Delay_clamped

let kind_index = function
  | Send -> 0
  | Deliver -> 1
  | Drop_no_edge -> 2
  | Drop_in_flight -> 3
  | Drop_lossy -> 4
  | Edge_add -> 5
  | Edge_remove -> 6
  | Discover_add -> 7
  | Discover_remove -> 8
  | Discover_stale -> 9
  | Timer_fire -> 10
  | Timer_stale -> 11
  | Fault_crash -> 12
  | Fault_restart -> 13
  | Fault_corrupt -> 14
  | Fault_byzantine_msg -> 15
  | Fault_duplicate -> 16
  | Delay_clamped -> 17

let kind_count = 18

let kind_to_string = function
  | Send -> "send"
  | Deliver -> "deliver"
  | Drop_no_edge -> "drop-no-edge"
  | Drop_in_flight -> "drop-in-flight"
  | Drop_lossy -> "drop-lossy"
  | Edge_add -> "edge-add"
  | Edge_remove -> "edge-remove"
  | Discover_add -> "discover-add"
  | Discover_remove -> "discover-remove"
  | Discover_stale -> "discover-stale"
  | Timer_fire -> "timer-fire"
  | Timer_stale -> "timer-stale"
  | Fault_crash -> "fault-crash"
  | Fault_restart -> "fault-restart"
  | Fault_corrupt -> "fault-corrupt"
  | Fault_byzantine_msg -> "fault-byz-msg"
  | Fault_duplicate -> "fault-duplicate"
  | Delay_clamped -> "delay-clamped"

let all_kinds =
  [ Send; Deliver; Drop_no_edge; Drop_in_flight; Drop_lossy; Edge_add; Edge_remove;
    Discover_add; Discover_remove; Discover_stale; Timer_fire; Timer_stale;
    Fault_crash; Fault_restart; Fault_corrupt; Fault_byzantine_msg;
    Fault_duplicate; Delay_clamped ]

let kinds_by_index = Array.of_list all_kinds

let kind_of_index i = kinds_by_index.(i)

type entry = { time : float; kind : kind; a : int; b : int; c : int }

type t = {
  counters : int array;
  log_limit : int;
  on_entry : (entry -> unit) option;
  entries_on : bool; (* log_limit > 0 || on_entry <> None *)
  mutable log : entry list; (* newest first *)
  mutable log_size : int;
  (* Parallel-dispatch shape counters, bumped by the engine's (single)
     coordinating domain only — windows formed, merge barriers paid,
     events dispatched inside windows, total simulated span the windows
     covered, and events that crossed a shard boundary in flight. They
     describe scheduling structure, not the execution, so they are kept
     out of the per-kind counters and the CSV. *)
  mutable windows : int;
  mutable barriers : int;
  mutable window_events : int;
  mutable window_span : float;
  mutable cross_shard : int;
}

let create ?(log_limit = 0) ?on_entry () =
  {
    counters = Array.make kind_count 0;
    log_limit;
    on_entry;
    entries_on = log_limit > 0 || on_entry <> None;
    log = [];
    log_size = 0;
    windows = 0;
    barriers = 0;
    window_events = 0;
    window_span = 0.;
    cross_shard = 0;
  }

(* Entry fields are formatted to match the free-form detail strings the
   engine used to build eagerly: endpoints for message events, the edge
   for topology events, the observing node for discovery and timers. *)
let pp_detail fmt e =
  match e.kind with
  | Send | Deliver | Drop_no_edge | Drop_in_flight | Drop_lossy ->
    Format.fprintf fmt "%d->%d" e.a e.b
  | Edge_add | Edge_remove -> Format.fprintf fmt "{%d,%d}" e.a e.b
  | Discover_add | Discover_remove | Discover_stale ->
    Format.fprintf fmt "%d:{%d,%d}" e.a e.a e.b
  | Timer_fire | Timer_stale -> Format.fprintf fmt "%d" e.a
  | Fault_crash | Fault_restart | Fault_corrupt -> Format.fprintf fmt "%d" e.a
  | Fault_byzantine_msg | Fault_duplicate | Delay_clamped ->
    Format.fprintf fmt "%d->%d" e.a e.b

let detail e = Format.asprintf "%a" pp_detail e

let pp_entry fmt e =
  Format.fprintf fmt "@[<h>%12.6f  %-16s %a@]" e.time (kind_to_string e.kind)
    pp_detail e

let record_slow t ~time kind a b c =
  let e = { time; kind; a; b; c } in
  if t.log_size < t.log_limit then begin
    t.log <- e :: t.log;
    t.log_size <- t.log_size + 1
  end;
  match t.on_entry with Some f -> f e | None -> ()

(* Inlined so the counters-only configuration — every experiment's hot
   path — compiles to an in-caller counter bump: crossing a function
   boundary here would box [time] on every traced event. *)
let[@inline] record t ~time kind a b c =
  let i = kind_index kind in
  Array.unsafe_set t.counters i (Array.unsafe_get t.counters i + 1);
  if t.entries_on then record_slow t ~time kind a b c

let note_window t ~span ~events =
  t.windows <- t.windows + 1;
  t.barriers <- t.barriers + 1;
  t.window_span <- t.window_span +. span;
  t.window_events <- t.window_events + events

let note_cross t n = t.cross_shard <- t.cross_shard + n

let windows t = t.windows

let barriers t = t.barriers

let window_events t = t.window_events

let window_span t = t.window_span

let cross_shard_events t = t.cross_shard

let wants_entries t = t.entries_on

let append_entry t ~time kind a b c = record_slow t ~time kind a b c

let merge_counts t deltas =
  if Array.length deltas <> kind_count then
    invalid_arg "Trace.merge_counts: wrong array length";
  for i = 0 to kind_count - 1 do
    t.counters.(i) <- t.counters.(i) + deltas.(i)
  done

let count t kind = t.counters.(kind_index kind)

let total t = Array.fold_left ( + ) 0 t.counters

let counts t = List.map (fun k -> (k, count t k)) all_kinds

let entries t = List.rev t.log

let csv_header = "time,kind,a,b,c\n"

let csv_row e =
  Printf.sprintf "%.9g,%s,%d,%d,%d\n" e.time (kind_to_string e.kind) e.a e.b e.c

let to_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf csv_header;
  List.iter (fun e -> Buffer.add_string buf (csv_row e)) (entries t);
  Buffer.contents buf

let pp_summary fmt t =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun k ->
      let c = count t k in
      if c > 0 then Format.fprintf fmt "%-18s %d@," (kind_to_string k) c)
    all_kinds;
  Format.fprintf fmt "@]"
