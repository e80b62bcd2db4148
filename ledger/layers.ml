(* The traced run: where a workload's time goes, layer by layer.

   Everything is timed from outside, around calls into each layer's
   public functions:

   - Gcs.Node: the harness assembles the engine itself and wraps every
     Algorithm 2 handler in a pair of clock reads. Handler time includes
     the ctx calls into Engine.send and Engine.set_timer.
   - Dsim.Equeue, Dsim.Timewheel, Dsim.Trace: a prefix of the run's trace
     log is replayed into a fresh queue, wheel and trace. The replay
     issues the engine's own operations in the engine's own order (so its
     tie-break ranks order events exactly as the engine's did) and checks
     that every dispatch pops the event the log says was dispatched.
   - the window path and Runner: the executor seam times each lane thunk
     and each round.
   - probes and Audit.Conformance: a with/without-probes slice pair, and
     the audit call itself.
   - Audit.Scenario / Fuzz and Mcheck.Explorer: per-call timers and the
     explorer's own counters.

   Shares are fractions of the traced run's busy time (the coordinator's
   time plus every lane's), less the handler timers' own clock reads;
   engine.residual_share is what no measured layer accounts for. *)

module W = Workloads
module Tr = Dsim.Trace

let now_ns = W.now_ns

(* Name and unit of every per-layer metric, in the printed order. *)
let catalog =
  [
    ("node.handler_ns_per_event", "ns");
    ("node.handler_share", "ratio");
    ("node.receive_calls", "count");
    ("node.timer_calls", "count");
    ("node.discover_calls", "count");
    ("equeue.ns_per_op", "ns");
    ("equeue.max_depth", "count");
    ("equeue.share", "ratio");
    ("timewheel.ns_per_op", "ns");
    ("timewheel.stale_ratio", "ratio");
    ("timewheel.share", "ratio");
    ("trace.ns_per_record", "ns");
    ("trace.share", "ratio");
    ("trace.overhead_share", "ratio");
    ("engine.residual_share", "ratio");
    ("engine.footprint_mwords", "Mwords");
    ("window.rounds", "count");
    ("window.barriers", "count");
    ("window.cross_shard_events", "count");
    ("window.events_share", "ratio");
    ("window.lane_busy_s", "s");
    ("window.imbalance", "ratio");
    ("window.coordinator_share", "ratio");
    ("runner.round_overhead_share", "ratio");
    ("probes.share", "ratio");
    ("conformance.ns_per_entry", "ns");
    ("conformance.share", "ratio");
    ("discover.stale_ratio", "ratio");
    ("scenario.run_ms_p50", "ms");
    ("scenario.run_ms_p95", "ms");
    ("scenario.run_ms_p99", "ms");
    ("scenario.generate_us", "us");
    ("fuzz.shrink_runs", "count");
    ("explorer.traces", "count");
    ("explorer.distinct_states", "count");
    ("explorer.pruned_ratio", "ratio");
    ("explorer.events_per_state", "count");
    ("explorer.choice_points", "count");
    ("gc.minor_words_per_event", "words");
    ("gc.promoted_words_per_event", "words");
    ("gc.major_collections", "count");
    ("gc.lane_minor_words_per_event", "words");
  ]

let median = W.median

let ratio a b = if b = 0. then 0. else a /. b

let fi = float_of_int

(* The cost of one timer: the interval two back-to-back clock reads
   measure, which every timed call also pays inside its interval. *)
let clock_cost_ns () =
  let sample () =
    let reps = 100_000 in
    let acc = ref 0 in
    for _ = 1 to reps do
      let t0 = now_ns () in
      acc := !acc + (now_ns () - t0)
    done;
    fi !acc /. fi reps
  in
  median [ sample (); sample (); sample () ]

let gc_metrics (r : W.result) =
  [
    ("gc.minor_words_per_event", ratio r.gc.minor_words (fi r.events));
    ("gc.promoted_words_per_event", ratio r.gc.promoted_words (fi r.events));
    ("gc.major_collections", fi r.gc.major_collections);
  ]

(* ------------------------------------------------------------------ *)
(* Handler and lane accounting                                          *)
(* ------------------------------------------------------------------ *)

(* Per-lane accumulators [| ns; receive; timer; discover; init |], one
   array per lane so two domains never write one cache line. A node's
   handlers run on its shard's lane; [lane_of] is the engine's
   contiguous split. *)
let s_ns = 0
let s_receive = 1
let s_timer = 2
let s_discover = 3
let s_init = 4

let lane_of ~n ~shards i =
  if shards <= 1 then 0
  else
    let chunk = (n + shards - 1) / shards in
    min (i / chunk) (shards - 1)

let wrap lanes ~n ~shards i (h : Gcs.Proto.handlers) : Gcs.Proto.handlers =
  let acc = lanes.(lane_of ~n ~shards i) in
  let[@inline] close slot t0 =
    acc.(s_ns) <- acc.(s_ns) + (now_ns () - t0);
    acc.(slot) <- acc.(slot) + 1
  in
  {
    on_init = (fun () -> let t0 = now_ns () in h.on_init (); close s_init t0);
    on_discover_add =
      (fun v -> let t0 = now_ns () in h.on_discover_add v; close s_discover t0);
    on_discover_remove =
      (fun v -> let t0 = now_ns () in h.on_discover_remove v; close s_discover t0);
    on_receive = (fun src m -> let t0 = now_ns () in h.on_receive src m; close s_receive t0);
    on_timer = (fun tm -> let t0 = now_ns () in h.on_timer tm; close s_timer t0);
  }

let lane_sum lanes slot = Array.fold_left (fun acc a -> acc + a.(slot)) 0 lanes

(* Handler calls that dispatch an event (on_init does not). *)
let dispatched lanes = lane_sum lanes s_receive + lane_sum lanes s_timer + lane_sum lanes s_discover

type rounds = {
  mutable call_ns : int;
  mutable max_ns : int;
  mutable mean_ns : float;
  mutable lane_ns : int;
  mutable lane_minor : float;
  mutable handler_in_ns : int;  (* handler time inside rounds ... *)
  mutable handler_in_calls : int;  (* ... and the calls it covers *)
}

(* The executor seam: time every lane thunk and the round around them.
   [Gc.minor_words] read inside a thunk is that lane's own domain. *)
let exec_timed r lanes run thunks =
  let k = Array.length thunks in
  let busy = Array.make k 0 and minor = Array.make k 0. in
  let timed =
    Array.mapi
      (fun i th () ->
        let w0 = Gc.minor_words () in
        let t0 = now_ns () in
        th ();
        busy.(i) <- now_ns () - t0;
        minor.(i) <- Gc.minor_words () -. w0)
      thunks
  in
  let h0 = lane_sum lanes s_ns and c0 = dispatched lanes in
  let t0 = now_ns () in
  run timed;
  r.call_ns <- r.call_ns + (now_ns () - t0);
  r.handler_in_ns <- r.handler_in_ns + (lane_sum lanes s_ns - h0);
  r.handler_in_calls <- r.handler_in_calls + (dispatched lanes - c0);
  r.max_ns <- r.max_ns + Array.fold_left max 0 busy;
  r.mean_ns <- r.mean_ns +. (fi (Array.fold_left ( + ) 0 busy) /. fi k);
  r.lane_ns <- r.lane_ns + Array.fold_left ( + ) 0 busy;
  r.lane_minor <- r.lane_minor +. Array.fold_left ( +. ) 0. minor

(* ------------------------------------------------------------------ *)
(* Scheduler and trace replay                                           *)
(* ------------------------------------------------------------------ *)

(* Replay op kinds. *)
let q_push = 0
let q_pop = 1
let w_arm = 2
let w_pop = 3

(* One column set of operations: kind, the op's own time (a pop's
   dispatch time), the push/arm deadline, and the event's endpoints (a
   queue event's a/b fields, a timer's node/label). *)
type ops = {
  mutable kind : int array;
  mutable at : float array;
  mutable dl : float array;
  mutable a : int array;
  mutable b : int array;
  mutable len : int;
}

let new_ops () =
  { kind = Array.make 1024 0; at = Array.make 1024 0.; dl = Array.make 1024 0.;
    a = Array.make 1024 0; b = Array.make 1024 0; len = 0 }

let emit c ~kind ~at ~dl ~a ~b =
  if c.len = Array.length c.kind then begin
    let grow x fill =
      let y = Array.make (2 * Array.length x) fill in
      Array.blit x 0 y 0 c.len;
      y
    in
    c.kind <- grow c.kind 0;
    c.at <- grow c.at 0.;
    c.dl <- grow c.dl 0.;
    c.a <- grow c.a 0;
    c.b <- grow c.b 0
  end;
  let i = c.len in
  c.kind.(i) <- kind;
  c.at.(i) <- at;
  c.dl.(i) <- dl;
  c.a.(i) <- a;
  c.b.(i) <- b;
  c.len <- i + 1;
  i

type replay = {
  pre : ops;  (* queue pushes made during set-up, in order *)
  ops : ops;  (* the run's operations, in order *)
  entries : Tr.entry array;
  horizon : float;
  fires : int;  (* Timer_fire entries ... *)
  tick_fires : int;  (* ... of the Tick label *)
}

(* Rebuild the scheduler operations behind a trace log prefix of an
   engine running the gradient algorithm under the wheel scheduler:

   - a Send on a present edge pushes its delivery, due at the time of the
     Deliver (or Drop_in_flight) that FIFO-matches it on (src, dst,
     epoch); a Send on an absent edge may push one coalesced absence
     notification, due a discovery lag later;
   - an edge change pops its scheduled event and pushes both endpoints'
     discoveries; initial edges (recorded at time 0 by Engine.create)
     push theirs during set-up, as do the scheduled churn events;
   - timers are armed by their owner's arming event — every node's Tick
     at start, Lost(src) by each receipt, Tick again by each Tick fire —
     at the end of that handler, due at the fire or stale surfacing that
     matches them per (node, label) in arming order.

   Deadlines of operations whose outcome lies beyond the prefix are set
   past its end. The log is cut before its last instant so no such
   operation can surface inside the replay. *)
let build_replay ~n ~(params : Gcs.Params.t) ~horizon (log : Tr.entry array) =
  let lag = 0.9 *. params.discovery_bound in
  let t_end = if Array.length log = 0 then 0. else log.(Array.length log - 1).Tr.time in
  let log =
    let k = ref (Array.length log) in
    while !k > 0 && log.(!k - 1).Tr.time >= t_end do
      decr k
    done;
    Array.sub log 0 !k
  in
  let pre = new_ops () and churn = new_ops () and c = new_ops () in
  let sends = Hashtbl.create 4096 and armed = Hashtbl.create 4096 in
  let absent = Hashtbl.create 64 in
  let pending_arm = ref None and fires = ref 0 and tick_fires = ref 0 in
  let enqueue tbl key i =
    match Hashtbl.find_opt tbl key with
    | Some q -> Queue.add i q
    | None ->
      let q = Queue.create () in
      Queue.add i q;
      Hashtbl.add tbl key q
  in
  let matched tbl key time =
    match Hashtbl.find_opt tbl key with
    | Some q when not (Queue.is_empty q) -> c.dl.(Queue.pop q) <- time
    | _ -> ()
  in
  let arm ~at ~node ~label ~after =
    enqueue armed (node, label) (emit c ~kind:w_arm ~at ~dl:(t_end +. after) ~a:node ~b:label)
  in
  (* A handler's set_timer is the last thing it does. *)
  let flush_arm () =
    match !pending_arm with
    | Some (at, node, label, after) ->
      pending_arm := None;
      arm ~at ~node ~label ~after
    | None -> ()
  in
  let pop kind (e : Tr.entry) =
    flush_arm ();
    ignore (emit c ~kind ~at:e.time ~dl:e.time ~a:e.a ~b:e.b)
  in
  let push ~at ~dl ~a ~b = emit c ~kind:q_push ~at ~dl ~a ~b in
  for i = 0 to n - 1 do
    arm ~at:0. ~node:i ~label:0 ~after:params.delta_h
  done;
  Array.iter
    (fun (e : Tr.entry) ->
      match e.kind with
      | Tr.Edge_add when e.time = 0. ->
        ignore (emit pre ~kind:q_push ~at:0. ~dl:0. ~a:e.a ~b:e.b);
        ignore (emit pre ~kind:q_push ~at:0. ~dl:0. ~a:e.b ~b:e.a)
      | Tr.Edge_add | Tr.Edge_remove ->
        ignore (emit churn ~kind:q_push ~at:0. ~dl:e.time ~a:e.a ~b:e.b);
        pop q_pop e;
        ignore (push ~at:e.time ~dl:(e.time +. lag) ~a:e.a ~b:e.b);
        ignore (push ~at:e.time ~dl:(e.time +. lag) ~a:e.b ~b:e.a)
      | Tr.Send ->
        if e.c >= 0 then
          enqueue sends (e.a, e.b, e.c)
            (push ~at:e.time ~dl:(e.time +. params.delay_bound) ~a:e.a ~b:e.b)
      | Tr.Drop_no_edge ->
        if not (Hashtbl.mem absent (e.a, e.b)) then begin
          Hashtbl.replace absent (e.a, e.b) ();
          ignore (push ~at:e.time ~dl:(e.time +. lag) ~a:e.a ~b:e.b)
        end
      | Tr.Deliver | Tr.Drop_in_flight ->
        pop q_pop e;
        matched sends (e.a, e.b, e.c) e.time;
        if e.kind = Tr.Deliver then
          pending_arm := Some (e.time, e.b, e.a + 1, Gcs.Params.delta_t' params)
      | Tr.Discover_add | Tr.Discover_remove | Tr.Discover_stale ->
        pop q_pop e;
        if e.c < 0 then Hashtbl.remove absent (e.a, e.b)
      | Tr.Timer_fire | Tr.Timer_stale ->
        pop w_pop e;
        matched armed (e.a, e.b) e.time;
        if e.kind = Tr.Timer_fire then begin
          incr fires;
          if e.b = 0 then begin
            incr tick_fires;
            pending_arm := Some (e.time, e.a, 0, params.delta_h)
          end
        end
      | Tr.Drop_lossy | Tr.Fault_crash | Tr.Fault_restart | Tr.Fault_corrupt
      | Tr.Fault_byzantine_msg | Tr.Fault_duplicate | Tr.Delay_clamped ->
        failwith ("replay: unsupported trace kind " ^ Tr.kind_to_string e.kind))
    log;
  flush_arm ();
  for i = 0 to churn.len - 1 do
    ignore (emit pre ~kind:q_push ~at:0. ~dl:churn.dl.(i) ~a:churn.a.(i) ~b:churn.b.(i))
  done;
  { pre; ops = c; entries = log; horizon; fires = !fires; tick_fires = !tick_fires }

let payload = Obj.repr ()

let count_kind (c : ops) k =
  let n = ref 0 in
  for i = 0 to c.len - 1 do
    if c.kind.(i) = k then incr n
  done;
  !n

let fresh_queue r =
  let q = Dsim.Equeue.create () in
  for i = 0 to r.pre.len - 1 do
    Dsim.Equeue.push q ~time:r.pre.dl.(i) ~seq:i ~kind:0 ~a:r.pre.a.(i) ~b:r.pre.b.(i) ~c:0
      ~d:0 payload
  done;
  q

let fresh_wheel (params : Gcs.Params.t) =
  Dsim.Timewheel.create ~granularity:(params.delta_h /. 16.) ()

(* The engine's scheduler loop over the replayed operations: pushes and
   arms as the handlers issued them, and before every dispatch the head
   selection Engine.select does — queue head, wheel resolved up to it,
   (time, seq) comparison — then the winning pop. Ranks come from one
   counter in creation order, as in the engine, so the winner is the
   logged event; [verify] checks that. Returns the elapsed ns, the count
   of dispatches that differ from the log and the deepest queue seen. *)
let scheduler_pass ?(verify = false) ~params r =
  let q = fresh_queue r and w = fresh_wheel params and c = r.ops in
  let seq = ref r.pre.len and bad = ref 0 and depth = ref 0 in
  let t0 = now_ns () in
  for i = 0 to c.len - 1 do
    let k = c.kind.(i) in
    if k = q_push then begin
      Dsim.Equeue.push q ~time:c.dl.(i) ~seq:!seq ~kind:0 ~a:c.a.(i) ~b:c.b.(i) ~c:0 ~d:0
        payload;
      incr seq
    end
    else if k = w_arm then begin
      Dsim.Timewheel.arm w ~node:c.a.(i) ~label:c.b.(i) ~gen:0 ~seq:!seq ~deadline:c.dl.(i);
      incr seq
    end
    else begin
      let qt = Dsim.Equeue.next_time q in
      let bound = if qt < r.horizon then qt else r.horizon in
      if
        Dsim.Timewheel.peek w ~upto:bound
        && (Dsim.Timewheel.top_time w < qt
           || Dsim.Timewheel.top_seq w < Dsim.Equeue.top_seq q)
      then begin
        if
          verify
          && (k <> w_pop
             || Dsim.Timewheel.top_time w <> c.at.(i)
             || Dsim.Timewheel.top_node w <> c.a.(i)
             || Dsim.Timewheel.top_label w <> c.b.(i))
        then incr bad;
        Dsim.Timewheel.pop w
      end
      else begin
        if verify then depth := max !depth (Dsim.Equeue.size q);
        Dsim.Equeue.pop q;
        if
          verify
          && (k <> q_pop || qt <> c.at.(i)
             || Dsim.Equeue.ev_a q <> c.a.(i)
             || Dsim.Equeue.ev_b q <> c.b.(i))
        then incr bad
      end
    end
  done;
  (now_ns () - t0, !bad, !depth)

(* The queue's part of that loop alone: its pushes, and at each queue
   dispatch the head read and the pop. With [timed_pushes], returns the
   time inside the pushes alone (timer cost included). *)
let queue_pass ?(timed_pushes = false) r =
  let q = fresh_queue r and c = r.ops in
  let seq = ref r.pre.len and push_ns = ref 0 and sink = ref 0. in
  let t0 = now_ns () in
  for i = 0 to c.len - 1 do
    let k = c.kind.(i) in
    if k = q_push then begin
      let p0 = if timed_pushes then now_ns () else 0 in
      Dsim.Equeue.push q ~time:c.dl.(i) ~seq:!seq ~kind:0 ~a:c.a.(i) ~b:c.b.(i) ~c:0 ~d:0
        payload;
      if timed_pushes then push_ns := !push_ns + (now_ns () - p0);
      incr seq
    end
    else if k = q_pop then begin
      sink := !sink +. Dsim.Equeue.next_time q;
      Dsim.Equeue.pop q
    end
  done;
  ignore (Sys.opaque_identity !sink);
  if timed_pushes then !push_ns else now_ns () - t0

(* The wheel's arms timed one by one (timer cost included), with the
   wheel's pops in between so it holds what it held in the run. *)
let arm_pass ~params r =
  let w = fresh_wheel params and c = r.ops in
  let seq = ref 0 and arm_ns = ref 0 in
  for i = 0 to c.len - 1 do
    let k = c.kind.(i) in
    if k = w_arm then begin
      let p0 = now_ns () in
      Dsim.Timewheel.arm w ~node:c.a.(i) ~label:c.b.(i) ~gen:0 ~seq:!seq ~deadline:c.dl.(i);
      arm_ns := !arm_ns + (now_ns () - p0);
      incr seq
    end
    else if k = w_pop && Dsim.Timewheel.peek w ~upto:c.at.(i) then Dsim.Timewheel.pop w
  done;
  !arm_ns

(* The op loop with no operation in it, subtracted from the passes. *)
let empty_pass r =
  let c = r.ops and sink = ref 0. in
  let t0 = now_ns () in
  for i = 0 to c.len - 1 do
    let k = c.kind.(i) in
    if k = q_push || k = w_arm then sink := !sink +. c.dl.(i)
    else sink := !sink +. c.at.(i) +. fi (c.a.(i) + c.b.(i))
  done;
  ignore (Sys.opaque_identity !sink);
  now_ns () - t0

(* Every replayed entry recorded into a fresh trace of the workload's
   own configuration (counters only, or the full log); [record:false]
   is the same loop without the record. *)
let trace_pass ~log ~record r =
  let tr = if log then Tr.create ~log_limit:max_int () else Tr.create () in
  let sink = ref 0 in
  let t0 = now_ns () in
  Array.iter
    (fun (e : Tr.entry) ->
      if record then Tr.record tr ~time:e.time e.kind e.a e.b e.c
      else sink := !sink + e.a + e.b + e.c)
    r.entries;
  let dt = now_ns () - t0 in
  ignore (Sys.opaque_identity (tr, !sink));
  dt

let median_of f =
  median
    (List.init 3 (fun _ ->
         Gc.compact ();
         fi (f ())))

type prices = {
  push_ns : float;
  pop_ns : float;  (* a queue dispatch: head read and pop *)
  queue_ns_per_op : float;
  wheel_ns_per_op : float;  (* including the per-dispatch head selection *)
  arm_ns : float;
  record_ns : float;
  max_depth : int;
}

let price ~params ~log ~clock_ns r =
  let _, bad, max_depth = scheduler_pass ~verify:true ~params r in
  if bad > 0 then failwith (Printf.sprintf "replay: %d dispatches differ from the log" bad);
  let empty = median_of (fun () -> empty_pass r) in
  let sched =
    median_of (fun () ->
        let t, _, _ = scheduler_pass ~params r in
        t)
    -. empty
  in
  let queue = median_of (fun () -> queue_pass r) -. empty in
  let wheel = Float.max 0. (sched -. queue) in
  let per x k = x /. fi (max 1 k) in
  let pushes = count_kind r.ops q_push and pops = count_kind r.ops q_pop in
  let wops = count_kind r.ops w_arm + count_kind r.ops w_pop in
  let push_ns =
    Float.max 0. (per (median_of (fun () -> queue_pass ~timed_pushes:true r)) pushes -. clock_ns)
  in
  let trace =
    median_of (fun () -> trace_pass ~log ~record:true r)
    -. median_of (fun () -> trace_pass ~log ~record:false r)
  in
  {
    push_ns;
    pop_ns = Float.max 0. (per (queue -. (push_ns *. fi pushes)) pops);
    queue_ns_per_op = per queue (pushes + pops);
    wheel_ns_per_op = per wheel wops;
    arm_ns =
      Float.max 0.
        (per (median_of (fun () -> arm_pass ~params r)) (count_kind r.ops w_arm) -. clock_ns);
    record_ns = Float.max 0. (per trace (Array.length r.entries));
    max_depth;
  }

(* ------------------------------------------------------------------ *)
(* Simulation workloads                                                 *)
(* ------------------------------------------------------------------ *)

(* Trace log entries replayed: a prefix of the run, at most 2 M. *)
let prefix_limit = function W.Full -> 2_000_000 | W.Check -> 200_000

(* The first [limit] log entries of the workload's execution. The path
   workloads run with counters only, so this is a run of its own that
   keeps the log and stops once the log is full. *)
let log_prefix spec ~seed ~limit =
  let inp = W.make_inputs spec ~seed in
  let trace = Tr.create ~log_limit:limit () in
  let sim =
    Gcs.Sim.create
      (Gcs.Sim.config ~trace ~params:inp.params ~clocks:inp.clocks ~delay:inp.delay
         ~initial_edges:inp.edges ())
  in
  let t = ref 0. in
  while Tr.total trace < limit && !t < spec.W.horizon do
    t := Float.min spec.W.horizon (!t +. 0.5);
    Gcs.Sim.run_until sim !t
  done;
  Array.of_list (Tr.entries trace)

(* Probe cost from a slice pair: the same slice of the run with and
   without the probes attached, alternated three times; the median
   difference, scaled from the slice to the whole horizon. *)
let probe_ns spec ~seed =
  let slice = Float.min spec.W.horizon 10. in
  let once probes =
    Gc.compact ();
    let inp = W.make_inputs spec ~seed in
    let sim =
      Gcs.Sim.create
        (Gcs.Sim.config ~trace:(Tr.create ~log_limit:max_int ()) ~params:inp.params
           ~clocks:inp.clocks ~delay:inp.delay ~initial_edges:inp.edges ())
    in
    let engine = Gcs.Sim.engine sim in
    Topology.Churn.schedule engine inp.churn;
    if probes then begin
      let view = Gcs.Sim.view sim in
      ignore
        (Audit.Guarantees.attach engine view ~params:inp.params ~check_envelope:true
           ~every:1. ~until:spec.horizon ());
      ignore
        (Gcs.Invariant.attach engine view ~params:inp.params ~every:1. ~until:spec.horizon ())
    end;
    let t0 = now_ns () in
    Gcs.Sim.run_until sim slice;
    fi (now_ns () - t0)
  in
  let d = median (List.init 3 (fun _ -> once true -. once false)) in
  d *. spec.W.horizon /. slice

let sim_layers w size ~seed ~(base : W.result) =
  let spec = W.sim_spec w size in
  let n = spec.n and shards = spec.shards in
  let clock_ns = clock_cost_ns () in
  Gc.compact ();
  let lanes = Array.init shards (fun _ -> Array.make 8 0) in
  let sim = W.build ~wrap:(wrap lanes ~n ~shards) spec ~seed in
  let r =
    { call_ns = 0; max_ns = 0; mean_ns = 0.; lane_ns = 0; lane_minor = 0.; handler_in_ns = 0;
      handler_in_calls = 0 }
  in
  let timed = W.run_timed ~exec:(exec_timed r lanes) sim in
  Option.iter (fun f -> failwith ("traced run: " ^ f)) timed.verdict;
  let digest = W.digest sim in
  if digest <> base.digest then
    failwith
      (Printf.sprintf "traced run digest %s differs from the untraced run's %s" digest
         base.digest);
  let tr = sim.trace and params = sim.inp.params in
  let counts = List.map (fun k -> (k, fi (Tr.count tr k))) Tr.all_kinds in
  let count k = List.assoc k counts in
  let records = fi (Tr.total tr) in
  let events = fi (Dsim.Engine.events_processed sim.engine) in
  let calls = fi (dispatched lanes + lane_sum lanes s_init) in
  let handler_ns = fi (lane_sum lanes s_ns) -. (calls *. clock_ns) in
  let handler_in_ns = fi r.handler_in_ns -. (fi r.handler_in_calls *. clock_ns) in
  let coordinator_ns = (timed.wall *. 1e9) -. fi r.call_ns in
  let round_overhead_ns = fi (r.call_ns - r.max_ns) in
  (* Busy time: the coordinator's, every lane's and the rounds' own
     overhead, less the handler timers' clock reads outside their
     intervals. *)
  let busy_ns = coordinator_ns +. fi r.lane_ns +. round_overhead_ns -. (calls *. clock_ns) in
  let share x = ratio x busy_ns in
  (* Events dispatched inside executor rounds, counted at the handlers:
     Trace.window_events also counts stale timer surfacings, which are
     not events. *)
  let window_events = ratio (fi r.handler_in_calls) (fi (dispatched lanes)) in
  let audit_ns = timed.audit *. 1e9 in
  let measured =
    [
      ("node.handler_ns_per_event", ratio handler_ns events);
      ("node.receive_calls", fi (lane_sum lanes s_receive));
      ("node.timer_calls", fi (lane_sum lanes s_timer));
      ("node.discover_calls", fi (lane_sum lanes s_discover));
      ("timewheel.stale_ratio",
       ratio (count Tr.Timer_stale) (count Tr.Timer_fire +. count Tr.Timer_stale));
      ("trace.overhead_share", ratio (timed.wall -. base.run_s) base.run_s);
      ("engine.footprint_mwords", fi (Dsim.Engine.footprint_words sim.engine) /. 1e6);
      ("window.rounds", fi (Tr.windows tr));
      ("window.barriers", fi (Tr.barriers tr));
      ("window.cross_shard_events", fi (Tr.cross_shard_events tr));
      ("window.events_share", window_events);
      ("window.lane_busy_s", fi r.lane_ns *. 1e-9);
      ("window.imbalance", ratio (fi r.max_ns) r.mean_ns);
      ("conformance.ns_per_entry", ratio audit_ns (fi timed.entries));
      ("discover.stale_ratio",
       ratio (count Tr.Discover_stale)
         (count Tr.Discover_add +. count Tr.Discover_remove +. count Tr.Discover_stale));
      ("gc.lane_minor_words_per_event", ratio r.lane_minor events);
    ]
  in
  let initial = fi (List.length sim.inp.edges) in
  (* From here on the traced run is garbage: the log prefix of the path
     workloads comes from a second run that must not share the heap
     with it. *)
  let log =
    if spec.audited then
      Array.of_list (List.filteri (fun i _ -> i < prefix_limit size) (Tr.entries tr))
    else begin
      Gc.compact ();
      log_prefix spec ~seed ~limit:(prefix_limit size)
    end
  in
  Gc.compact ();
  let rp = build_replay ~n ~params ~horizon:spec.horizon log in
  let p = price ~params ~log:spec.audited ~clock_ns rp in
  (* Full-run operation counts, from the traced run's trace counters:
     every dispatch but the initial edges' records is a queue or wheel
     pop; arms are each node's first Tick, one Lost per receipt and one
     Tick per Tick fire (their share of fires taken from the prefix). *)
  let qpops =
    count Tr.Deliver +. count Tr.Drop_in_flight +. count Tr.Discover_add
    +. count Tr.Discover_remove +. count Tr.Discover_stale +. count Tr.Edge_add
    +. count Tr.Edge_remove -. initial
  in
  let sends = count Tr.Send -. count Tr.Drop_no_edge in
  let qpushes = sends +. (2. *. (count Tr.Edge_add +. count Tr.Edge_remove -. initial)) in
  let arms =
    fi n +. count Tr.Deliver +. (count Tr.Timer_fire *. ratio (fi rp.tick_fires) (fi rp.fires))
  in
  let wops = arms +. count Tr.Timer_fire +. count Tr.Timer_stale in
  let equeue_ns = (p.push_ns *. qpushes) +. (p.pop_ns *. qpops) in
  let wheel_ns = p.wheel_ns_per_op *. wops in
  let trace_ns = p.record_ns *. records in
  (* Handler self time: the handlers less the queue pushes, wheel arms
     and trace records their ctx calls made, which the queue, wheel and
     trace shares already carry. *)
  let handler_self_ns =
    handler_ns -. (p.push_ns *. sends) -. (p.arm_ns *. arms)
    -. (p.record_ns *. (count Tr.Send +. count Tr.Drop_no_edge))
  in
  (* The coordinator's own time outside executor rounds, less the
     handlers it ran there and its sequential share of the scheduler
     and trace work. *)
  let coordinator_self_ns =
    if shards <= 1 then 0.
    else
      coordinator_ns
      -. (handler_ns -. handler_in_ns)
      -. ((1. -. window_events) *. (equeue_ns +. wheel_ns +. trace_ns))
      -. audit_ns
  in
  let probes_ns = if spec.audited then probe_ns spec ~seed else 0. in
  let shares =
    [
      ("node.handler_share", share handler_self_ns);
      ("equeue.share", share equeue_ns);
      ("timewheel.share", share wheel_ns);
      ("trace.share", share trace_ns);
      ("probes.share", share probes_ns);
      ("conformance.share", share audit_ns);
      ("window.coordinator_share", share coordinator_self_ns);
      ("runner.round_overhead_share", share round_overhead_ns);
    ]
  in
  shares @ measured
  @ [
      ("equeue.ns_per_op", p.queue_ns_per_op);
      ("equeue.max_depth", fi p.max_depth);
      ("timewheel.ns_per_op", p.wheel_ns_per_op);
      ("trace.ns_per_record", p.record_ns);
      ("engine.residual_share", List.fold_left (fun acc (_, s) -> acc -. s) 1. shares);
    ]
  @ gc_metrics base

(* ------------------------------------------------------------------ *)
(* fuzz_faults and mcheck_n3                                           *)
(* ------------------------------------------------------------------ *)

(* No layer of these two is split out in time, so the residual is the
   whole run; their per-call timers and counters are the ledger. *)
let fuzz_layers ~(base : W.result) ~generate_s ~run_s =
  let ms = List.map (fun s -> s *. 1e3) run_s in
  let pct q = Analysis.Stats.percentile q ms in
  [
    ("scenario.run_ms_p50", pct 0.50);
    ("scenario.run_ms_p95", pct 0.95);
    ("scenario.run_ms_p99", pct 0.99);
    ("scenario.generate_us", median (List.map (fun s -> s *. 1e6) generate_s));
    ("engine.residual_share", 1.);
  ]
  @ gc_metrics base

let mcheck_layers ~(base : W.result) (s : Mcheck.Explorer.stats) =
  [
    ("explorer.traces", fi s.traces);
    ("explorer.distinct_states", fi s.distinct_states);
    ("explorer.pruned_ratio", ratio (fi s.pruned) (fi (s.traces + s.pruned)));
    ("explorer.events_per_state", ratio (fi s.events) (fi s.distinct_states));
    ("explorer.choice_points", fi s.choice_points);
    ("engine.residual_share", 1.);
  ]
  @ gc_metrics base

(* Every catalog metric, 0 where the workload does not exercise (or the
   ledger does not instrument) that layer. *)
let complete measured =
  List.map
    (fun (name, unit) ->
      (name, Option.value ~default:0. (List.assoc_opt name measured), unit))
    catalog
