(* Events are flattened into [Equeue]'s int encoding — a kind tag, four
   int operands and one boxed payload (message, timer value or callback
   closure) — so pushing an event allocates nothing. The decoding key:

     kind              a      b        c      d      payload
     k_edge_add        u      v
     k_edge_remove     u      v
     k_discover_add    node   peer     epoch
     k_discover_rm     node   peer     epoch
     k_absence         node   peer
     k_deliver         src    dst      epoch  inc    'msg
     k_timer           node   label    gen
     k_crash           node
     k_restart         node   corrupt
     k_callback                                      unit -> unit
     k_commute_cb                                    unit -> unit

   Timers wait in the per-shard wheels, never in a queue: [k_timer] only
   tags a wheel entry held in the tie-break scratch. *)
let k_edge_add = 0
let k_edge_remove = 1
let k_discover_add = 2
let k_discover_rm = 3
let k_absence = 4
let k_deliver = 5
let k_timer = 6
let k_crash = 7
let k_restart = 8
let k_callback = 9
let k_commute_cb = 10

let kind_names =
  [| "edge-add"; "edge-remove"; "discover-add"; "discover-remove"; "absence";
     "deliver"; "timer"; "crash"; "restart"; "callback"; "commuting-callback" |]

let no_payload : Obj.t = Obj.repr ()

(* Binary search in the first [len] cells of sorted [keys]: the index of
   [k], or [lnot] of its insertion point when absent (always negative).
   The per-node tables below are keyed by peer/label ids and are
   degree-bounded, so a branchless-ish search plus an [Array.blit] shift
   beats hashing — no key boxing, no bucket chains, cache-linear. *)
let bfind (keys : int array) len k =
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if keys.(mid) < k then lo := mid + 1 else hi := mid
  done;
  if !lo < len && keys.(!lo) = k then !lo else lnot !lo

(* FIFO floor of one source's outgoing links, sorted by destination:
   latest scheduled delivery time per dst, valid only for the edge epoch
   it was recorded under. The send path touches one small per-source
   table; memory is O(live out-degree), never O(n) per node. *)
module Fifo_store = struct
  type t = {
    mutable dst : int array;
    mutable epoch : int array;
    mutable deadline : float array;
    mutable len : int;
  }

  let create () = { dst = [||]; epoch = [||]; deadline = [||]; len = 0 }

  let grow s =
    let cap = max 4 (2 * Array.length s.dst) in
    let d = Array.make cap 0
    and e = Array.make cap 0
    and dl = Array.make cap 0. in
    Array.blit s.dst 0 d 0 s.len;
    Array.blit s.epoch 0 e 0 s.len;
    Array.blit s.deadline 0 dl 0 s.len;
    s.dst <- d;
    s.epoch <- e;
    s.deadline <- dl

  let insert s ~at dst epoch deadline =
    if s.len >= Array.length s.dst then grow s;
    let tail = s.len - at in
    Array.blit s.dst at s.dst (at + 1) tail;
    Array.blit s.epoch at s.epoch (at + 1) tail;
    Array.blit s.deadline at s.deadline (at + 1) tail;
    s.dst.(at) <- dst;
    s.epoch.(at) <- epoch;
    s.deadline.(at) <- deadline;
    s.len <- s.len + 1

  let remove s dst =
    let i = bfind s.dst s.len dst in
    if i >= 0 then begin
      let tail = s.len - i - 1 in
      Array.blit s.dst (i + 1) s.dst i tail;
      Array.blit s.epoch (i + 1) s.epoch i tail;
      Array.blit s.deadline (i + 1) s.deadline i tail;
      s.len <- s.len - 1
    end

  let footprint_words s = 3 * Array.length s.dst
end

(* Sorted set of peers with a pending absence notice (per node). *)
module Iset = struct
  type t = { mutable keys : int array; mutable len : int }

  let create () = { keys = [||]; len = 0 }

  let mem s k = bfind s.keys s.len k >= 0

  (* Add [k]; no-op when present. *)
  let add s k =
    let i = bfind s.keys s.len k in
    if i < 0 then begin
      let at = lnot i in
      if s.len >= Array.length s.keys then begin
        let cap = max 4 (2 * Array.length s.keys) in
        let ks = Array.make cap 0 in
        Array.blit s.keys 0 ks 0 s.len;
        s.keys <- ks
      end;
      Array.blit s.keys at s.keys (at + 1) (s.len - at);
      s.keys.(at) <- k;
      s.len <- s.len + 1
    end

  let remove s k =
    let i = bfind s.keys s.len k in
    if i >= 0 then begin
      Array.blit s.keys (i + 1) s.keys i (s.len - i - 1);
      s.len <- s.len - 1
    end
end

(* One node's armed timers, sorted by encoded label: the live generation
   of each. The timer value itself is not kept here: a wheel entry
   surfaces with its label, and the engine looks the value up in its
   label table ([timers], filled by [remember_timer]). *)
module Armed = struct
  type t = {
    mutable labels : int array;
    mutable gens : int array;
    mutable len : int;
  }

  let create () = { labels = [||]; gens = [||]; len = 0 }

  let find s label = bfind s.labels s.len label

  let insert s ~at label gen =
    if s.len >= Array.length s.labels then begin
      let cap = max 4 (2 * Array.length s.labels) in
      let ls = Array.make cap 0 and gs = Array.make cap 0 in
      Array.blit s.labels 0 ls 0 s.len;
      Array.blit s.gens 0 gs 0 s.len;
      s.labels <- ls;
      s.gens <- gs
    end;
    let tail = s.len - at in
    if tail > 0 then begin
      Array.blit s.labels at s.labels (at + 1) tail;
      Array.blit s.gens at s.gens (at + 1) tail
    end;
    s.labels.(at) <- label;
    s.gens.(at) <- gen;
    s.len <- s.len + 1

  let remove_at s i =
    let tail = s.len - i - 1 in
    if tail > 0 then begin
      Array.blit s.labels (i + 1) s.labels i tail;
      Array.blit s.gens (i + 1) s.gens i tail
    end;
    s.len <- s.len - 1
end

(* The per-node stores start out as one shared empty sentinel each and
   get their own record on the node's first insert ([claim]): most nodes
   never note an absence, and a node that never sends or arms pays one
   pointer per store. Every write path either goes through [claim] or
   only touches a found entry, which the sentinel never has. *)
let fifo_none = Fifo_store.create ()

let iset_none = Iset.create ()

let armed_none = Armed.create ()

let[@inline] claim tbl i ~none ~fresh =
  let s = tbl.(i) in
  if s != none then s
  else begin
    let s = fresh () in
    tbl.(i) <- s;
    s
  end

(* Live fault-injection state. Allocated only when the engine was created
   with a non-empty schedule, so the no-fault hot path pays exactly one
   option-tag check per send/delivery. The PRNG drives every fault-local
   draw (duplicate delays, Byzantine corruption, restart-state
   corruption); draws happen in dispatch/send order, which is identical
   at every shard count, so fault schedules replay byte-identically. *)
type fault_state = {
  ops : Fault.schedule;
  fprng : Prng.t;
  f_alive : bool array;
  f_inc : int array; (* per-node incarnation, bumped at each crash *)
}

(* All-float so the per-event [now] store writes an unboxed double; a
   mutable float field in the main (mixed) record would box on every
   assignment. [whorizon] is the horizon of the window in flight, read
   by the prebuilt lane thunks (which outlive any one call). *)
type fscratch = {
  mutable now : float;
  mutable cand_time : float;
  mutable whorizon : float;
}

(* Scratch for the tie-break hook: the same-instant event group is popped
   out of the queue and the wheel into these parallel arrays, in seq
   order, before the hook picks which member dispatches next. Wheel
   entries carry kind [k_timer]. *)
type tb_scratch = {
  mutable tb_seq : int array;
  mutable tb_kind : int array;
  mutable tb_a : int array;
  mutable tb_b : int array;
  mutable tb_c : int array;
  mutable tb_d : int array;
  mutable tb_payload : Obj.t array;
  mutable tb_len : int;
}

(* Provisional ranks: inside a parallel dispatch window, lane [s] tags
   its [j]-th creation with [prov_flag lor (s lsl 40) lor j] — block
   base 2^60 (above every final rank the counter can reach) plus a
   per-lane block of width 2^40. The barrier replays the per-lane
   dispatch logs in merged (time, rank) order and rewrites every
   provisional rank to the exact dense rank the sequential run would
   have assigned, so the (time, seq) order — and the trace — stays
   byte-identical at every shard and domain count (DESIGN §14). The
   numeric constants live in [Equeue] so the queue and wheel can count
   provisional entries for their batch remaps. *)
let prov_flag = Equeue.prov_flag

let cre_mask = Equeue.cre_mask

(* A lane stops dispatching this far before its block runs out, leaving
   room for the creations of the dispatch in flight; the next window
   re-opens with a fresh block. 2^40 creations per window is out of
   reach in practice (the buffered state alone would exhaust memory). *)
let cre_slack = 1 lsl 16

(* All-float scratch (see [fscratch]): [lnow] is the lane's current event
   time inside a window, [lhead] the lane's earliest pending time as of
   the last [head] call, [lwstop] the window end (exclusive). *)
type lscratch = {
  mutable lnow : float;
  mutable lhead : float;
  mutable lwstop : float;
}

(* Per-shard lane: dispatch state one domain owns during a parallel
   window, plus running counters the accessors sum over. Trace activity
   inside a window is buffered here — counter deltas always, structured
   entries only when the trace retains them — and folded/replayed at the
   barrier; the dispatch log ([mt]/[mseq]/[mcre]/[ment], one row per
   in-window dispatch) is what the barrier merges to re-rank. *)
type lane = {
  ls : int; (* shard index *)
  lf : lscratch;
  mutable lpar : bool; (* inside a parallel window *)
  mutable lcre : int; (* provisional ranks handed out this window *)
  (* Running totals; lane-owned, summed by the accessors. *)
  mutable levents : int;
  mutable llive : int;
  mutable lstale : int;
  (* Window-buffered trace state. *)
  lcounters : int array; (* per-kind deltas, folded at the barrier *)
  mutable bt : float array; (* entry buffer: time *)
  mutable bk : int array; (* kind index *)
  mutable ba : int array;
  mutable bb : int array;
  mutable bc : int array;
  mutable blen : int;
  (* Dispatch log: one row per in-window dispatch, in dispatch order. *)
  mutable mt : float array; (* event time *)
  mutable mseq : int array; (* rank at dispatch (provisional or final) *)
  mutable mcre : int array; (* [lcre] before the dispatch ran *)
  mutable ment : int array; (* [blen] before the dispatch ran *)
  mutable mlen : int;
  mutable lfinal : int array;
      (* final rank per creation index of the window being merged *)
}

type ('msg, 'timer) t = {
  n : int;
  clocks : Hwclock.t array;
  delay : Delay.t;
  discovery_lag : float;
  graph : Dyngraph.t;
  (* Sharding: [part.(id)] names the shard owning node [id] — equal
     contiguous id ranges ([[||]] at one shard, where every node is in
     shard 0). Each shard owns an event queue, an outbox and a timer
     wheel. The outbox is an [Equeue] too: it holds the deliveries the
     shard's lane creates for other lanes inside a parallel window, until
     the window's barrier re-ranks and drains them into their owners'
     queues (DESIGN §14). Outside windows it stays empty.
     Sequentially-created events draw ranks from one global sequence
     counter; window-created events get provisional block ranks that the
     barrier rewrites to the exact sequential ranks, so the (time, seq)
     merge order, and therefore the trace, is byte-identical at every
     shard count. Global events whose dispatch must stay sequential
     (topology changes, faults, callbacks) live in a dedicated control
     queue when [shards > 1]. *)
  shards : int;
  part : int array;
  queues : Equeue.t array;
  outboxes : Equeue.t array;
  wheels : Timewheel.t array; (* per shard *)
  lanes : lane array; (* per shard *)
  control : Equeue.t; (* order-sensitive global events; empty at shards=1 *)
  trace : Trace.t;
  handlers : ('msg, 'timer) handlers array;
      (* [no_handlers] until the node is installed *)
  timer_label : 'timer -> int;
      (* Encodes a label for Timer_fire/Timer_stale trace records and
         keys the armed tables and wheel entries. *)
  mutable timers : 'timer option array;
      (* label -> the timer value first armed under it, so a surfacing
         wheel entry hands [on_timer] its value back. One cell per label
         up to the largest armed, filled once, for the whole engine. *)
  mutable timers_set : int; (* filled cells of [timers] *)
  timers_lock : Mutex.t; (* guards every write to [timers] *)
  armed : Armed.t array; (* per-node armed-label table *)
  absence_pending : Iset.t array;
      (* node -> peers with a pending absence notice *)
  fifo : Fifo_store.t array; (* src -> per-destination delivery floors *)
  gens : int array;
      (* per-node timer generation counters: lane-safe, unlike a global
         one, and still unique per (node, label) *)
  mutable next_seq : int; (* global (time, seq) tie-break counter *)
  fs : fscratch;
  mutable started : bool;
  mutable ctrl_events : int; (* control-queue events dispatched *)
  (* Merge-loop candidate (scratch fields, not refs: allocation-free). *)
  mutable cand_seq : int;
  mutable cand_shard : int;
  mutable cand_wheel : bool;
  mutable cand_ctrl : bool;
  (* Parallel-window eligibility, fixed at creation: several shards, a
     pure delay policy with positive lookahead and no fault injection.
     Everything else always takes the sequential path. *)
  par_ok : bool;
  log_on : bool; (* the trace wants entries; lanes must buffer them *)
  mutable executor : ((unit -> unit) array -> unit) option;
      (* runs one window's lane thunks to completion (Runner.run);
         [None] runs them in the caller, in index order *)
  mutable lane_thunks : (unit -> unit) array;
      (* one prebuilt thunk per lane (built on first parallel window):
         reads its window stop from the lane's [lwstop] and the horizon
         from [fs.whorizon], so no closure is allocated per window *)
  w_actives : lane array;
      (* coordinator-only scratch: the lanes the window in flight runs *)
  (* In-dispatch commuting-callback context: set while a [k_commute_cb]
     payload runs so a commuting callback it schedules can stay on the
     dispatching lane (and a non-commuting schedule from inside a window
     can fail loudly instead of racing on the control queue). *)
  mutable in_cb : bool;
  mutable cb_lane : lane;
  faults : fault_state option;
  corrupt_msg : (src:int -> Prng.t -> 'msg -> 'msg) option;
      (* Applied to messages a Byzantine node sends during its window. *)
  restart_handlers : (corrupt:Prng.t option -> unit) array;
      (* [no_restart] until the node registers one *)
  mutable tie_break : (int -> int) option;
      (* Adversary hook: given the size k of the same-instant event group
         across the queue and the wheel, returns the index (in seq order)
         of the event to dispatch next. Single shard only. *)
  tb : tb_scratch;
}

and ('msg, 'timer) handlers = {
  on_init : unit -> unit;
  on_discover_add : int -> unit;
  on_discover_remove : int -> unit;
  on_receive : int -> 'msg -> unit;
  on_timer : 'timer -> unit;
}

type ('msg, 'timer) ctx = { engine : ('msg, 'timer) t; id : int; lane : lane }

(* Shared sentinels for a node with no handlers or restart entry point
   yet: a plain cell per node instead of an option box around each. The
   checks compare physically against them. *)
let no_handlers =
  {
    on_init = ignore;
    on_discover_add = ignore;
    on_discover_remove = ignore;
    on_receive = (fun _ _ -> ());
    on_timer = ignore;
  }

let no_restart ~corrupt:_ = ()

let[@inline] shard_of t id = if t.shards = 1 then 0 else Array.unsafe_get t.part id

(* Is this kind's dispatch order-sensitive beyond its own node — topology
   changes, faults, harness callbacks? Those mutate global state (the
   graph, liveness) or run arbitrary harness code, so they are kept out
   of the lane queues and dispatched sequentially from the control queue
   whenever the engine is sharded. Commuting callbacks are the deliberate
   exception: the caller promised they commute with node events, so they
   ride the lane queues like node events do. At [shards = 1] the single
   queue IS the sequential dispatcher, and routing nothing keeps that
   configuration exactly the traditional one (tie-break enumeration
   included). *)
let[@inline] ctrl_kind kind =
  kind <= k_edge_remove || (kind >= k_crash && kind <= k_callback)

(* Sequential push of an encoded event for the node [owner]: draws the
   next global rank and goes straight to the owner's queue (or the
   control queue for order-sensitive kinds under sharding). All
   harness-side scheduling and all sequential dispatch lands here, so
   this is also the one guard against a commuting callback scheduling a
   non-commuting event from inside a window: it fails before anything
   is pushed or mutated. *)
let push_ev t ~owner ~time ~kind ~a ~b ~c ~d payload =
  if t.in_cb && t.cb_lane.lpar then
    failwith
      "Engine: a commuting callback scheduled a non-commuting event inside \
       a parallel window";
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if t.shards > 1 && ctrl_kind kind then
    Equeue.push t.control ~time ~seq ~kind ~a ~b ~c ~d payload
  else
    Equeue.push t.queues.(shard_of t owner) ~time ~seq ~kind ~a ~b ~c ~d payload

(* Lane-side push, used by the node API (send / set_timer / absence
   notices): inside a parallel window it allocates a provisional block
   rank and keeps same-lane events local, routing cross-lane events
   through the lane's outbox for the barrier; outside a window it is
   [push_ev]. Node code never creates control kinds, and only a delivery
   can be addressed to another lane's node: an absence notice goes to
   its sender, a commuting callback to node 0's lane, which runs it. *)
let push_from t lane ~owner ~time ~kind ~a ~b ~c ~d payload =
  if lane.lpar then begin
    let j = lane.lcre in
    if j > cre_mask then failwith "Engine: window rank block exhausted";
    lane.lcre <- j + 1;
    let seq = prov_flag lor (lane.ls lsl 40) lor j in
    let dst = shard_of t owner in
    if dst = lane.ls then
      Equeue.push t.queues.(dst) ~time ~seq ~kind ~a ~b ~c ~d payload
    else begin
      (* The window's soundness rests on the lookahead: a cross-lane
         event created inside [t_start, wstop) must land at or beyond
         the window end, or the destination lane may already have
         dispatched past it. *)
      if time < lane.lf.lwstop then
        failwith
          "Engine: delay policy violated its min_lat promise inside a \
           parallel window";
      if kind <> k_deliver then
        failwith
          (Printf.sprintf
             "Engine: a %s event crossed lanes inside a parallel window"
             kind_names.(kind));
      Equeue.push t.outboxes.(lane.ls) ~time ~seq ~kind ~a ~b ~c ~d payload
    end
  end
  else push_ev t ~owner ~time ~kind ~a ~b ~c ~d payload

(* Lane-aware trace record: buffered during a window (counter delta plus,
   when the trace wants entries, the structured entry), direct
   otherwise. The buffered entries replay at the barrier in the global
   (time, seq) order, so the log and the consumer see exactly the
   sequential run's entries. *)
let lane_record t lane ~time kind a b c =
  if lane.lpar then begin
    let i = Trace.kind_index kind in
    lane.lcounters.(i) <- lane.lcounters.(i) + 1;
    if t.log_on then begin
      let len = lane.blen in
      if len >= Array.length lane.bk then begin
        let cap = max 64 (2 * len) in
        let g_i a =
          let a' = Array.make cap 0 in
          Array.blit a 0 a' 0 len;
          a'
        in
        let bt' = Array.make cap 0. in
        Array.blit lane.bt 0 bt' 0 len;
        lane.bt <- bt';
        lane.bk <- g_i lane.bk;
        lane.ba <- g_i lane.ba;
        lane.bb <- g_i lane.bb;
        lane.bc <- g_i lane.bc
      end;
      lane.bt.(len) <- time;
      lane.bk.(len) <- i;
      lane.ba.(len) <- a;
      lane.bb.(len) <- b;
      lane.bc.(len) <- c;
      lane.blen <- len + 1
    end
  end
  else Trace.record t.trace ~time kind a b c

(* Append one row to the lane's dispatch log, before the dispatch runs:
   the event's (time, rank) key plus the creation/entry watermarks that
   delimit what this dispatch produced. *)
let lane_mark lane ~time ~seq =
  let len = lane.mlen in
  if len >= Array.length lane.mseq then begin
    let cap = max 64 (2 * len) in
    let g_i a =
      let a' = Array.make cap 0 in
      Array.blit a 0 a' 0 len;
      a'
    in
    let mt' = Array.make cap 0. in
    Array.blit lane.mt 0 mt' 0 len;
    lane.mt <- mt';
    lane.mseq <- g_i lane.mseq;
    lane.mcre <- g_i lane.mcre;
    lane.ment <- g_i lane.ment
  end;
  lane.mt.(len) <- time;
  lane.mseq.(len) <- seq;
  lane.mcre.(len) <- lane.lcre;
  lane.ment.(len) <- lane.blen;
  lane.mlen <- len + 1

(* Shard split: equal contiguous id ranges. [shard_of] only affects
   which queue an event waits in and which lane dispatches it — never
   the (time, seq) dispatch order — so the trace is the same at every
   shard count. *)
let contiguous_part ~n ~shards =
  if shards <= 1 then [||]
  else begin
    let chunk = (n + shards - 1) / shards in
    Array.init n (fun i -> min (i / chunk) (shards - 1))
  end

let create ~clocks ~delay ?(discovery_lag = 0.) ?(initial_edges = []) ?trace
    ~timer_label ?scheduler ?(shards = 1) ?(faults = []) ?(fault_seed = 0) ?corrupt_msg () =
  let n = Array.length clocks in
  if n = 0 then invalid_arg "Engine.create: no nodes";
  if discovery_lag < 0. then invalid_arg "Engine.create: negative discovery lag";
  if shards < 1 then invalid_arg "Engine.create: need at least one shard";
  (match Fault.validate ~n faults with
  | Ok () -> ()
  | Error m -> invalid_arg ("Engine.create: " ^ m));
  let fault_state =
    match faults with
    | [] -> None
    | ops ->
      Some
        {
          ops;
          fprng = Prng.of_int fault_seed;
          f_alive = Array.make n true;
          f_inc = Array.make n 0;
        }
  in
  (* Granularity sets how many slot scans a wheel fire costs, never the
     dispatch order; without a caller's choice, a sixteenth of the delay
     bound keeps message-scale timeouts a few granules apart. *)
  let granularity =
    match scheduler with
    | Some (`Wheel g) -> g
    | None -> if delay.Delay.bound > 0. then delay.Delay.bound /. 16. else 1.
  in
  let tr = match trace with Some tr -> tr | None -> Trace.create () in
  (* The initial edges go into the graph first; their trace records and
     discovery events are emitted once [t] exists, in list order. *)
  let graph = Dyngraph.create ~n in
  let fresh_edges =
    List.filter (fun (u, v) -> Dyngraph.add_edge graph ~now:0. u v) initial_edges
  in
  (* The initial discovery burst, two events per fresh edge, is the
     queue's first peak. [~capacity] sizes the queue's event pool and
     the run these in-order pushes fill, so set-up skips their doublings
     and the garbage they leave; the heap, which they never reach,
     starts empty. *)
  let burst = (2 * List.length fresh_edges + shards - 1) / shards in
  let mk_lane s =
    {
      ls = s;
      lf = { lnow = 0.; lhead = infinity; lwstop = infinity };
      lpar = false;
      lcre = 0;
      levents = 0;
      llive = 0;
      lstale = 0;
      lcounters = Array.make Trace.kind_count 0;
      bt = [||];
      bk = [||];
      ba = [||];
      bb = [||];
      bc = [||];
      blen = 0;
      mt = [||];
      mseq = [||];
      mcre = [||];
      ment = [||];
      mlen = 0;
      lfinal = [||];
    }
  in
  let lanes = Array.init shards mk_lane in
  let t =
    {
      n;
      clocks;
      delay;
      discovery_lag;
      graph;
      shards;
      part = contiguous_part ~n ~shards;
      queues = Array.init shards (fun _ -> Equeue.create ~capacity:(max 64 burst) ());
      outboxes = Array.init shards (fun _ -> Equeue.create ~capacity:0 ());
      wheels = Array.init shards (fun _ -> Timewheel.create ~granularity ());
      lanes;
      control = Equeue.create ~capacity:64 ();
      trace = tr;
      handlers = Array.make n no_handlers;
      timer_label;
      timers = [||];
      timers_set = 0;
      timers_lock = Mutex.create ();
      armed = Array.make n armed_none;
      absence_pending = Array.make n iset_none;
      fifo = Array.make n fifo_none;
      gens = Array.make n 0;
      next_seq = 0;
      fs = { now = 0.; cand_time = infinity; whorizon = infinity };
      started = false;
      ctrl_events = 0;
      cand_seq = max_int;
      cand_shard = -1;
      cand_wheel = false;
      cand_ctrl = false;
      par_ok =
        shards > 1 && delay.Delay.pure
        && delay.Delay.min_lat > 0.
        && fault_state = None;
      log_on = Trace.wants_entries tr;
      executor = None;
      lane_thunks = [||];
      w_actives = Array.make shards lanes.(0);
      in_cb = false;
      cb_lane = lanes.(0);
      faults = fault_state;
      corrupt_msg;
      restart_handlers = Array.make n no_restart;
      tie_break = None;
      tb =
        {
          tb_seq = [||];
          tb_kind = [||];
          tb_a = [||];
          tb_b = [||];
          tb_c = [||];
          tb_d = [||];
          tb_payload = [||];
          tb_len = 0;
        };
    }
  in
  List.iter
    (fun (u, v) ->
      let epoch = Dyngraph.epoch t.graph u v in
      (* Record the initial topology so an offline trace replay knows the
         full edge history, not just the changes scheduled later. *)
      Trace.record t.trace ~time:0. Edge_add u v (-1);
      (* Initial topology is known immediately. *)
      push_ev t ~owner:u ~time:0. ~kind:k_discover_add ~a:u ~b:v ~c:epoch ~d:0
        no_payload;
      push_ev t ~owner:v ~time:0. ~kind:k_discover_add ~a:v ~b:u ~c:epoch ~d:0
        no_payload)
    fresh_edges;
  (* Crash/restart ops flow through the shared queues as first-class
     events at fixed (time, seq) ranks, so fault timing is part of the
     one total dispatch order. *)
  List.iter
    (fun op ->
      match op with
      | Fault.Crash { node; at } ->
        push_ev t ~owner:node ~time:at ~kind:k_crash ~a:node ~b:0 ~c:0 ~d:0
          no_payload
      | Fault.Restart { node; at; corrupt } ->
        push_ev t ~owner:node ~time:at ~kind:k_restart ~a:node
          ~b:(if corrupt then 1 else 0)
          ~c:0 ~d:0 no_payload
      | Fault.Duplicate _ | Fault.Reorder _ | Fault.Byzantine _ -> ())
    (List.stable_sort
       (fun a b -> Float.compare (Fault.op_time a) (Fault.op_time b))
       faults);
  t

let handlers_of t i =
  let h = t.handlers.(i) in
  if h == no_handlers then
    invalid_arg (Printf.sprintf "Engine: node %d has no handlers installed" i);
  h

let install t i build =
  if i < 0 || i >= t.n then invalid_arg "Engine.install: node out of range";
  if t.started then invalid_arg "Engine.install: engine already started";
  t.handlers.(i) <- build { engine = t; id = i; lane = t.lanes.(shard_of t i) }

(* Node-side API ----------------------------------------------------- *)

let node_id ctx = ctx.id

let on_restart ctx h =
  ctx.engine.restart_handlers.(ctx.id) <- h

let alive t i =
  match t.faults with None -> true | Some f -> f.f_alive.(i)

(* A node's view of "now": its lane's current event time inside a
   parallel window, the engine's global time otherwise (equal to the
   dispatching event's time on the sequential path). *)
let[@inline] node_now ctx =
  if ctx.lane.lpar then ctx.lane.lf.lnow else ctx.engine.fs.now

(* Forced inline: a non-inlined call returning [float] boxes its result
   at every call site, and this runs several times per dispatched event
   (receive, adjust-clock, send-update). Inlined, the [Hwclock.value]
   arithmetic stays on unboxed floats end to end. *)
let[@inline always] hardware_clock ctx =
  Hwclock.value ctx.engine.clocks.(ctx.id) (node_now ctx)

let send ctx ~dst msg =
  let t = ctx.engine in
  let lane = ctx.lane in
  let src = ctx.id in
  if dst < 0 || dst >= t.n || dst = src then invalid_arg "Engine.send: bad destination";
  let now = node_now ctx in
  let epoch = Dyngraph.live_epoch t.graph src dst in
  if epoch >= 0 then begin
    (* The send carries its edge epoch so an offline auditor can pair it
       with the matching deliver/drop under the per-epoch FIFO discipline. *)
    lane_record t lane ~time:now Send src dst epoch;
    (* A Byzantine sender's outgoing messages are corrupted in flight
       during its window; the substitution is traced so auditors can
       exclude the edge from guarantee probes. (Fault injection forces
       the sequential path, so the direct records here never race.) *)
    let msg =
      match (t.faults, t.corrupt_msg) with
      | Some f, Some corrupt when Fault.byzantine f.ops ~node:src ~at:now ->
        Trace.record t.trace ~time:now Fault_byzantine_msg src dst epoch;
        corrupt ~src f.fprng msg
      | _ -> msg
    in
    if t.delay.Delay.may_drop && t.delay.Delay.drop ~src ~dst ~now then
      (* Silent loss (outside the paper's reliable-link model): no
         delivery and no discovery; only the receiver's lost-timer will
         notice the silence. *)
      lane_record t lane ~time:now Drop_lossy src dst epoch
    else begin
      let inc =
        match t.faults with None -> 0 | Some f -> f.f_inc.(src)
      in
      let reordered =
        match t.faults with
        | None -> false
        | Some f -> Fault.reordered f.ops ~src ~dst ~at:now
      in
      (* Fixed-delay policies skip the closure call: a generic
         closure-field call boxes its float result on every send. *)
      let d =
        let c = t.delay.Delay.const in
        if c >= 0. then c
        else begin
          let d = t.delay.Delay.draw ~src ~dst ~now in
          (* An out-of-range draw is clamped but loudly traced: a silent
             clamp can mask a broken adversary policy (and would quietly
             shrink the delay space an exhaustive explorer thinks it is
             covering). NaN is out of range too, and clamps to 0. *)
          if d >= 0. && d <= t.delay.Delay.bound then d
          else begin
            lane_record t lane ~time:now Delay_clamped src dst epoch;
            if d > t.delay.Delay.bound then t.delay.Delay.bound else 0.
          end
        end
      in
      let deliver_at = now +. d in
      (* FIFO per directed link *and* edge epoch: never deliver before an
         earlier message of the same epoch, but a floor recorded under a
         previous life of the edge is dead — in-flight messages of that
         epoch are dropped at delivery, so nothing can be overtaken. A
         reordering fault window suspends the floor (the link stops being
         FIFO for its duration) without touching the recorded state.
         Under a constant delay [c] no floor can bind, so none is kept: a
         sender's sends leave at non-decreasing [now] (dispatch time on
         the sequential path, the lane's clock inside a window), so a
         stored floor [now' +. c] with [now' <= now] never exceeds
         [now +. c] (float addition is monotone), and duplicates and
         reorder windows never write one. *)
      let deliver_at =
        if reordered || t.delay.Delay.const >= 0. then deliver_at
        else
          let fs = t.fifo.(src) in
          let i = bfind fs.Fifo_store.dst fs.Fifo_store.len dst in
          if i >= 0 then begin
            let floor =
              if fs.Fifo_store.epoch.(i) = epoch
                 && fs.Fifo_store.deadline.(i) > deliver_at
              then fs.Fifo_store.deadline.(i)
              else deliver_at
            in
            fs.Fifo_store.epoch.(i) <- epoch;
            fs.Fifo_store.deadline.(i) <- floor;
            floor
          end
          else begin
            let fs = claim t.fifo src ~none:fifo_none ~fresh:Fifo_store.create in
            Fifo_store.insert fs ~at:(lnot i) dst epoch deliver_at;
            deliver_at
          end
      in
      push_from t lane ~owner:dst ~time:deliver_at ~kind:k_deliver ~a:src
        ~b:dst ~c:epoch ~d:inc (Obj.repr msg);
      (* Bounded duplication: a second copy with its own (fault-PRNG)
         delay, floored at the original's delivery so the duplicate can
         never overtake the message it copies. *)
      match t.faults with
      | Some f when Fault.duplicated f.ops ~src ~dst ~at:now ->
        Trace.record t.trace ~time:now Fault_duplicate src dst epoch;
        let d2 = Prng.float f.fprng t.delay.Delay.bound in
        let dup_at = Float.max deliver_at (now +. d2) in
        push_ev t ~owner:dst ~time:dup_at ~kind:k_deliver ~a:src ~b:dst ~c:epoch
          ~d:inc (Obj.repr msg)
      | _ -> ()
    end
  end
  else begin
    lane_record t lane ~time:now Send src dst (-1);
    lane_record t lane ~time:now Drop_no_edge src dst (-1);
    (* The model: the sender discovers the absence within D. Coalesce
       multiple failed sends into a single pending notification. *)
    if not (Iset.mem t.absence_pending.(src) dst) then begin
      Iset.add (claim t.absence_pending src ~none:iset_none ~fresh:Iset.create) dst;
      push_from t lane ~owner:src ~time:(now +. t.discovery_lag) ~kind:k_absence
        ~a:src ~b:dst ~c:0 ~d:0 no_payload
    end
  end

(* Record [timer] as the value of [label] in the engine's table, the
   first time the label is armed. Injectivity of [timer_label] makes
   every later value under the label equal to it, so a re-arm writes
   nothing here and allocates nothing that outlives the call. Lanes arm
   from their own domains inside a parallel window, so every write and
   every resize takes [timers_lock]: a resize then copies every cell
   filled before it, and as cells only go from [None] to [Some], an
   unlocked read of any later table finds each label its reader armed. *)
let remember_timer t label timer =
  let vals = t.timers in
  let filled = label < Array.length vals && Option.is_some vals.(label) in
  if not filled then
    Mutex.protect t.timers_lock (fun () ->
        let len = Array.length t.timers in
        if label >= len then begin
          let vals' = Array.make (max 8 (max (label + 1) (2 * len))) None in
          Array.blit t.timers 0 vals' 0 len;
          t.timers <- vals'
        end;
        if Option.is_none t.timers.(label) then begin
          t.timers.(label) <- Some timer;
          t.timers_set <- t.timers_set + 1
        end)

let set_timer ctx ~after timer =
  let t = ctx.engine in
  let lane = ctx.lane in
  if after < 0. then invalid_arg "Engine.set_timer: negative delay";
  let clock = t.clocks.(ctx.id) in
  let now = node_now ctx in
  let deadline = Hwclock.inverse clock (Hwclock.value clock now +. after) in
  (* Rejected before any bookkeeping changes, or a NaN or infinite delay
     would leave a live timer that no wheel entry backs. *)
  if not (Float.is_finite deadline) then invalid_arg "Engine.set_timer: non-finite delay";
  let label = t.timer_label timer in
  if label < 0 then invalid_arg "Engine.set_timer: negative timer label";
  let gen = t.gens.(ctx.id) in
  t.gens.(ctx.id) <- gen + 1;
  remember_timer t label timer;
  (* A re-arm supersedes the pending entry: its wheel slot goes stale and
     will be discarded when it surfaces; the live count is unchanged. *)
  let s = t.armed.(ctx.id) in
  let i = Armed.find s label in
  if i >= 0 then begin
    lane.lstale <- lane.lstale + 1;
    s.Armed.gens.(i) <- gen
  end
  else begin
    lane.llive <- lane.llive + 1;
    Armed.insert (claim t.armed ctx.id ~none:armed_none ~fresh:Armed.create) ~at:(lnot i)
      label gen
  end;
  (* The tie-break rank comes from the engine's global counter (or the
     lane's provisional block inside a window) so wheel timers keep the
     exact (time, seq) position a queue push would have had. Timers
     never cross shards: a node only arms its own. *)
  let seq =
    if lane.lpar then begin
      let j = lane.lcre in
      if j > cre_mask then failwith "Engine: window rank block exhausted";
      lane.lcre <- j + 1;
      prov_flag lor (lane.ls lsl 40) lor j
    end
    else begin
      let s = t.next_seq in
      t.next_seq <- s + 1;
      s
    end
  in
  Timewheel.arm t.wheels.(lane.ls) ~node:ctx.id ~label ~gen ~seq ~deadline

let cancel_timer ctx timer =
  let t = ctx.engine in
  let lane = ctx.lane in
  let s = t.armed.(ctx.id) in
  let i = Armed.find s (t.timer_label timer) in
  if i >= 0 then begin
    Armed.remove_at s i;
    lane.llive <- lane.llive - 1;
    lane.lstale <- lane.lstale + 1
  end

(* Harness-side API --------------------------------------------------- *)

let now t = t.fs.now

let graph t = t.graph

let trace t = t.trace

(* Why this engine cannot take the parallel dispatch path (None when it
   can). Mirrors the [par_ok] conjunction at creation, in check order,
   so a sharded `gcs_sim sim` run can explain a sequential fallback. *)
let par_blocker t =
  if t.par_ok then None
  else if t.shards <= 1 then Some "single shard"
  else if not t.delay.Delay.pure then
    Some ("impure delay policy (" ^ Delay.describe t.delay ^ ")")
  else if t.delay.Delay.min_lat <= 0. then
    Some "delay policy has zero minimum latency (no lookahead)"
  else Some "fault injection requires sequential dispatch"

(* Checked before any rank is drawn. A NaN time would pass the past
   check, and an infinite one could never dispatch. *)
let check_future name t at =
  if not (Float.is_finite at) then invalid_arg ("Engine." ^ name ^ ": non-finite time");
  if at < t.fs.now then invalid_arg "Engine: cannot schedule in the past"

(* Endpoints are checked here, at the call: a bad id would otherwise
   index the shard split, or fail only once the event dispatches. *)
let check_edge name t u v =
  if u < 0 || v < 0 || u >= t.n || v >= t.n || u = v then
    invalid_arg
      (Printf.sprintf "Engine.%s: bad edge (%d, %d) over %d nodes" name u v t.n)

(* Topology events are control events under sharding: they dispatch
   sequentially between windows, never inside one. *)
let schedule_edge_add t ~at u v =
  check_edge "schedule_edge_add" t u v;
  check_future "schedule_edge_add" t at;
  push_ev t ~owner:(min u v) ~time:at ~kind:k_edge_add ~a:u ~b:v ~c:0 ~d:0
    no_payload

let schedule_edge_remove t ~at u v =
  check_edge "schedule_edge_remove" t u v;
  check_future "schedule_edge_remove" t at;
  push_ev t ~owner:(min u v) ~time:at ~kind:k_edge_remove ~a:u ~b:v ~c:0 ~d:0
    no_payload

let at ?(commuting = false) t ~time f =
  check_future "at" t time;
  if commuting then begin
    (* Commuting callbacks ride the lane queues (owner 0, so exactly one
       lane ever dispatches them). A commuting callback scheduling
       another from inside a window stays on its lane with a provisional
       rank; everywhere else this is a plain sequential push. *)
    if t.in_cb && t.cb_lane.lpar then begin
      if time < t.cb_lane.lf.lnow then
        invalid_arg "Engine: cannot schedule in the past";
      push_from t t.cb_lane ~owner:0 ~time ~kind:k_commute_cb ~a:0 ~b:0 ~c:0
        ~d:0 (Obj.repr f)
    end
    else
      push_ev t ~owner:0 ~time ~kind:k_commute_cb ~a:0 ~b:0 ~c:0 ~d:0
        (Obj.repr f)
  end
  else push_ev t ~owner:0 ~time ~kind:k_callback ~a:0 ~b:0 ~c:0 ~d:0 (Obj.repr f)

let events_processed t =
  let acc = ref t.ctrl_events in
  for s = 0 to t.shards - 1 do
    acc := !acc + t.lanes.(s).levents
  done;
  !acc

let queue_depth t =
  let acc = ref (Equeue.size t.control) in
  for s = 0 to t.shards - 1 do
    acc := !acc + Equeue.size t.queues.(s) + Equeue.size t.outboxes.(s)
  done;
  !acc

let stale_timer_entries t =
  let acc = ref 0 in
  for s = 0 to t.shards - 1 do
    acc := !acc + t.lanes.(s).lstale
  done;
  !acc

let pending_events t =
  let acc = ref (queue_depth t - stale_timer_entries t) in
  for s = 0 to t.shards - 1 do
    acc := !acc + Timewheel.size t.wheels.(s)
  done;
  !acc

let live_timers t =
  let acc = ref 0 in
  for s = 0 to t.shards - 1 do
    acc := !acc + t.lanes.(s).llive
  done;
  !acc

(* Engine-owned storage in words — queues, outboxes, wheels, the lanes'
   pooled window buffers, the timer label table, per-node tables and
   the graph. The scaling tests pin this to O(n + live edges) and keep
   shards from multiplying it; a pair-keyed regression would show up as
   O(n^2) growth here. *)
let footprint_words t =
  let acc = ref (Equeue.footprint_words t.control) in
  for s = 0 to t.shards - 1 do
    let lane = t.lanes.(s) in
    acc := !acc + Equeue.footprint_words t.queues.(s)
           + Equeue.footprint_words t.outboxes.(s)
           + Timewheel.footprint_words t.wheels.(s)
           + Array.length lane.lfinal
           + (4 * Array.length lane.mseq)
           + (5 * Array.length lane.bk)
  done;
  (* The label table: one cell per label, and a two-word [Some] box per
     filled cell. *)
  acc := !acc + Array.length t.timers + (2 * t.timers_set);
  for i = 0 to t.n - 1 do
    acc := !acc + Fifo_store.footprint_words t.fifo.(i)
           + Array.length t.absence_pending.(i).Iset.keys
           + (2 * Array.length t.armed.(i).Armed.labels)
  done;
  !acc + Dyngraph.footprint_words t.graph

(* Event dispatch ----------------------------------------------------- *)

let schedule_discovery t u v ~epoch ~add =
  let time = t.fs.now +. t.discovery_lag in
  let kind = if add then k_discover_add else k_discover_rm in
  push_ev t ~owner:u ~time ~kind ~a:u ~b:v ~c:epoch ~d:0 no_payload;
  push_ev t ~owner:v ~time ~kind ~a:v ~b:u ~c:epoch ~d:0 no_payload

let node_dead t node =
  match t.faults with None -> false | Some f -> not f.f_alive.(node)

(* Crash: the node loses every piece of state it owns inside the engine —
   armed timers (their wheel slots go stale, surfacing later exactly like
   cancelled timers do) and its outgoing FIFO floors (everything it had
   in flight is dropped at delivery by the incarnation check, so clearing
   the floors cannot let a post-restart message overtake a delivery that
   actually happens). *)
let apply_crash t f node =
  Trace.record t.trace ~time:t.fs.now Fault_crash node (-1) (-1);
  f.f_alive.(node) <- false;
  f.f_inc.(node) <- f.f_inc.(node) + 1;
  let lane = t.lanes.(shard_of t node) in
  (* The guards keep the shared empty stores unwritten. *)
  let s = t.armed.(node) in
  let k = s.Armed.len in
  if k > 0 then s.Armed.len <- 0;
  lane.llive <- lane.llive - k;
  lane.lstale <- lane.lstale + k;
  let fs = t.fifo.(node) in
  if fs.Fifo_store.len > 0 then fs.Fifo_store.len <- 0

let apply_restart t f node ~corrupt =
  f.f_alive.(node) <- true;
  Trace.record t.trace ~time:t.fs.now Fault_restart node (-1) (-1);
  let corrupt_prng =
    if corrupt then begin
      Trace.record t.trace ~time:t.fs.now Fault_corrupt node (-1) (-1);
      Some f.fprng
    end
    else None
  in
  t.restart_handlers.(node) ~corrupt:corrupt_prng;
  (* The restarted node relearns its current neighborhood within the
     discovery lag, as if every incident edge had just appeared to it. *)
  List.iter
    (fun peer ->
      let epoch = Dyngraph.epoch t.graph node peer in
      push_ev t ~owner:node ~time:(t.fs.now +. t.discovery_lag)
        ~kind:k_discover_add ~a:node ~b:peer ~c:epoch ~d:0 no_payload)
    (Dyngraph.neighbors t.graph node)

(* Dispatch the event [q] last popped. [lane] is the owner's
   lane; node-addressed kinds and commuting callbacks may run inside a
   parallel window, in which case [now] is the lane's event time and all
   records buffer. Topology changes, faults and plain callbacks are only
   ever dispatched sequentially: under sharding they live in the control
   queue, and at one shard there are no windows. *)
let dispatch t lane q kind =
  let now = if lane.lpar then lane.lf.lnow else t.fs.now in
  if kind = k_deliver then begin
    let src = Equeue.ev_a q
    and dst = Equeue.ev_b q
    and epoch = Equeue.ev_c q
    and inc = Equeue.ev_d q in
    let crash_lost =
      match t.faults with
      | None -> false
      | Some f ->
        (* The message is lost if the receiver is down or the sender
           crashed after sending it (its incarnation moved on): a crash
           severs the node from the network, in both directions. *)
        (not f.f_alive.(dst)) || inc <> f.f_inc.(src)
    in
    if crash_lost then lane_record t lane ~time:now Drop_lossy src dst epoch
    else if Dyngraph.live_epoch t.graph src dst = epoch then begin
      lane_record t lane ~time:now Deliver src dst epoch;
      (handlers_of t dst).on_receive src (Obj.obj (Equeue.ev_payload q))
    end
    else lane_record t lane ~time:now Drop_in_flight src dst epoch
  end
  else if kind = k_discover_add || kind = k_discover_rm then begin
    let node = Equeue.ev_a q
    and peer = Equeue.ev_b q
    and epoch = Equeue.ev_c q in
    (* Deliver only if this is still the edge's latest change (a change
       reversed within the lag is superseded by its reversal's own
       discovery) and the observer is up — a crashed node observes
       nothing; it relearns its neighborhood after restarting. *)
    if node_dead t node then
      lane_record t lane ~time:now Discover_stale node peer epoch
    else if Dyngraph.epoch t.graph node peer = epoch then begin
      if kind = k_discover_add then begin
        lane_record t lane ~time:now Discover_add node peer epoch;
        (handlers_of t node).on_discover_add peer
      end
      else begin
        lane_record t lane ~time:now Discover_remove node peer epoch;
        (handlers_of t node).on_discover_remove peer
      end
    end
    else lane_record t lane ~time:now Discover_stale node peer epoch
  end
  else if kind = k_absence then begin
    let node = Equeue.ev_a q and peer = Equeue.ev_b q in
    Iset.remove t.absence_pending.(node) peer;
    if node_dead t node then
      lane_record t lane ~time:now Discover_stale node peer (-1)
    else if not (Dyngraph.has_edge t.graph node peer) then begin
      lane_record t lane ~time:now Discover_remove node peer (-1);
      (handlers_of t node).on_discover_remove peer
    end
    else lane_record t lane ~time:now Discover_stale node peer (-1)
  end
  else if kind = k_edge_add then begin
    let u = Equeue.ev_a q and v = Equeue.ev_b q in
    if Dyngraph.add_edge t.graph ~now:t.fs.now u v then begin
      Trace.record t.trace ~time:t.fs.now Edge_add u v (-1);
      schedule_discovery t u v ~epoch:(Dyngraph.epoch t.graph u v) ~add:true
    end
  end
  else if kind = k_edge_remove then begin
    let u = Equeue.ev_a q and v = Equeue.ev_b q in
    if Dyngraph.remove_edge t.graph ~now:t.fs.now u v then begin
      Trace.record t.trace ~time:t.fs.now Edge_remove u v (-1);
      (* The FIFO floors of the removed edge belong to a finished epoch:
         drop them so a later re-add starts fresh instead of queueing new
         messages behind the dead epoch's last delivery time. *)
      Fifo_store.remove t.fifo.(u) v;
      Fifo_store.remove t.fifo.(v) u;
      schedule_discovery t u v ~epoch:(Dyngraph.epoch t.graph u v) ~add:false
    end
  end
  else if kind = k_crash then begin
    match t.faults with
    | Some f -> apply_crash t f (Equeue.ev_a q)
    | None -> assert false
  end
  else if kind = k_restart then begin
    match t.faults with
    | Some f -> apply_restart t f (Equeue.ev_a q) ~corrupt:(Equeue.ev_b q = 1)
    | None -> assert false
  end
  else if kind = k_callback then (Obj.obj (Equeue.ev_payload q) : unit -> unit) ()
  else if kind = k_commute_cb then begin
    (* Commuting callback: always owner 0, so only shard_of(0)'s lane
       ever reaches this branch — [in_cb]/[cb_lane] are single-writer. *)
    t.cb_lane <- lane;
    t.in_cb <- true;
    (Obj.obj (Equeue.ev_payload q) : unit -> unit) ();
    t.in_cb <- false
  end
  else assert false

let start t =
  if not t.started then begin
    t.started <- true;
    for i = 0 to t.n - 1 do
      (handlers_of t i).on_init ()
    done
  end

(* Pop [w]'s resolved head and fire it if it still holds the armed
   generation for its label; otherwise it was superseded or cancelled
   after being armed. Stale entries are bookkeeping garbage, not events:
   they don't count as processed and never reach a handler. *)
let run_wheel_head t lane w =
  let node = Timewheel.top_node w
  and label = Timewheel.top_label w
  and gen = Timewheel.top_gen w in
  Timewheel.pop w;
  let now = if lane.lpar then lane.lf.lnow else t.fs.now in
  let s = t.armed.(node) in
  let i = Armed.find s label in
  if i >= 0 && s.Armed.gens.(i) = gen then begin
    Armed.remove_at s i;
    lane.llive <- lane.llive - 1;
    lane.levents <- lane.levents + 1;
    lane_record t lane ~time:now Timer_fire node label (-1);
    (* Armed labels always have a value: [set_timer] stored it first. *)
    match t.timers.(label) with
    | Some timer -> (handlers_of t node).on_timer timer
    | None -> assert false
  end
  else begin
    lane.lstale <- lane.lstale - 1;
    lane_record t lane ~time:now Timer_stale node label (-1)
  end

(* Pop [q]'s head and dispatch it as a lane event. *)
let run_queue_head t lane q =
  Equeue.pop q;
  lane.levents <- lane.levents + 1;
  dispatch t lane q (Equeue.ev_kind q);
  Equeue.release q

let set_tie_break t hook =
  (match hook with
  | Some _ when t.shards <> 1 ->
    invalid_arg "Engine.set_tie_break: the hook requires a single shard"
  | _ -> ());
  t.tie_break <- hook

let tb_push tb ~seq ~kind ~a ~b ~c ~d payload =
  let cap = Array.length tb.tb_seq in
  if tb.tb_len = cap then begin
    let ncap = if cap = 0 then 8 else 2 * cap in
    let grow arr =
      let n = Array.make ncap 0 in
      Array.blit arr 0 n 0 tb.tb_len;
      n
    in
    tb.tb_seq <- grow tb.tb_seq;
    tb.tb_kind <- grow tb.tb_kind;
    tb.tb_a <- grow tb.tb_a;
    tb.tb_b <- grow tb.tb_b;
    tb.tb_c <- grow tb.tb_c;
    tb.tb_d <- grow tb.tb_d;
    let np = Array.make ncap no_payload in
    Array.blit tb.tb_payload 0 np 0 tb.tb_len;
    tb.tb_payload <- np
  end;
  let i = tb.tb_len in
  tb.tb_seq.(i) <- seq;
  tb.tb_kind.(i) <- kind;
  tb.tb_a.(i) <- a;
  tb.tb_b.(i) <- b;
  tb.tb_c.(i) <- c;
  tb.tb_d.(i) <- d;
  tb.tb_payload.(i) <- payload;
  tb.tb_len <- i + 1

(* With a tie-break hook installed, every queue and wheel entry due at
   the candidate instant — live or stale — is popped into scratch in seq
   order, and the hook picks which one dispatches next. [select] peeked
   the wheel up to that instant, so every wheel entry due then already
   sits in its due set, in front of every later one. Each entry goes
   back to its own structure (a wheel entry re-arms into the resolved
   past, so straight into the wheel's due set, an [Equeue] like the
   queue), the chosen one with its seq lowered to -1
   (below every allocated rank, so it is the next to surface) while the
   others keep their original seqs; the candidate is redirected to the
   chosen entry's structure. The hook is consulted again before each
   subsequent dispatch at the instant — including any events the chosen
   handler just scheduled at the same time — so repeated calls enumerate
   every permutation of a same-instant group one choice at a time.
   Single shard only, so shard 0 holds everything. *)
let tie_break t pick =
  let tm = t.fs.cand_time in
  let q = t.queues.(0) and w = t.wheels.(0) in
  let tb = t.tb in
  tb.tb_len <- 0;
  let gathering = ref true in
  while !gathering do
    let qseq = if Equeue.next_time q = tm then Equeue.top_seq q else max_int in
    let wseq = Timewheel.top_seq w in
    if wseq < qseq && Timewheel.top_time w = tm then begin
      tb_push tb ~seq:wseq ~kind:k_timer
        ~a:(Timewheel.top_node w) ~b:(Timewheel.top_label w)
        ~c:(Timewheel.top_gen w) ~d:0 no_payload;
      Timewheel.pop w
    end
    else if qseq < max_int then begin
      Equeue.pop q;
      tb_push tb ~seq:qseq ~kind:(Equeue.ev_kind q) ~a:(Equeue.ev_a q)
        ~b:(Equeue.ev_b q) ~c:(Equeue.ev_c q) ~d:(Equeue.ev_d q)
        (Equeue.ev_payload q);
      Equeue.release q
    end
    else gathering := false
  done;
  let k = tb.tb_len in
  let j = pick k in
  if j < 0 || j >= k then
    invalid_arg "Engine tie-break hook returned an out-of-range choice";
  for i = 0 to k - 1 do
    let seq = if i = j then -1 else tb.tb_seq.(i) in
    if tb.tb_kind.(i) = k_timer then
      Timewheel.arm w ~node:tb.tb_a.(i) ~label:tb.tb_b.(i) ~gen:tb.tb_c.(i)
        ~seq ~deadline:tm
    else begin
      Equeue.push q ~time:tm ~seq ~kind:tb.tb_kind.(i) ~a:tb.tb_a.(i)
        ~b:tb.tb_b.(i) ~c:tb.tb_c.(i) ~d:tb.tb_d.(i) tb.tb_payload.(i);
      tb.tb_payload.(i) <- no_payload
    end
  done;
  t.cand_wheel <- tb.tb_kind.(j) = k_timer

(* Shard [s]'s head: its queue head against its wheel head, the wheel
   resolved lazily no further than the queue head or [upto]. Records the
   winner's time in the lane's [lhead] and returns whether the wheel
   wins; the winner's seq is then [Timewheel.top_seq] or
   [Equeue.top_seq]. The one head comparison both [select] and the
   window loop run. *)
let[@inline] head t s ~upto =
  let q = t.queues.(s) and w = t.wheels.(s) in
  let qt = Equeue.next_time q in
  let wheel =
    Timewheel.peek w ~upto:(if qt < upto then qt else upto)
    && (Timewheel.top_time w < qt || Timewheel.top_seq w < Equeue.top_seq q)
  in
  t.lanes.(s).lf.lhead <- (if wheel then Timewheel.top_time w else qt);
  wheel

(* Pick the earliest (time, seq) candidate across every shard's head —
   and the control queue — into the [cand_*] scratch fields, leaving
   each lane's own earliest time in [lhead] for the window gate. *)
let select t ~horizon =
  t.fs.cand_time <- infinity;
  t.cand_seq <- max_int;
  t.cand_shard <- -1;
  t.cand_wheel <- false;
  t.cand_ctrl <- false;
  for s = 0 to t.shards - 1 do
    let wheel = head t s ~upto:horizon in
    let tm = t.lanes.(s).lf.lhead in
    let seq =
      if wheel then Timewheel.top_seq t.wheels.(s) else Equeue.top_seq t.queues.(s)
    in
    if tm < t.fs.cand_time || (tm = t.fs.cand_time && seq < t.cand_seq) then begin
      t.fs.cand_time <- tm;
      t.cand_seq <- seq;
      t.cand_shard <- s;
      t.cand_wheel <- wheel
    end
  done;
  if t.shards > 1 then begin
    let ct = Equeue.next_time t.control in
    let cseq = Equeue.top_seq t.control in
    if ct < t.fs.cand_time || (ct = t.fs.cand_time && cseq < t.cand_seq)
    then begin
      t.fs.cand_time <- ct;
      t.cand_seq <- cseq;
      t.cand_shard <- -1;
      t.cand_wheel <- false;
      t.cand_ctrl <- true
    end
  end

(* Dispatch the selected candidate sequentially — the traditional path,
   and the only one control events, fault runs, impure delay policies and
   tie-break enumeration ever take. *)
let seq_step t =
  t.fs.now <- t.fs.cand_time;
  if t.cand_ctrl then begin
    let q = t.control in
    Equeue.pop q;
    t.ctrl_events <- t.ctrl_events + 1;
    (* Any lane serves as the (sequential) record context; crash
       bookkeeping inside picks the node's own lane. *)
    dispatch t t.lanes.(0) q (Equeue.ev_kind q);
    Equeue.release q
  end
  else begin
    (match t.tie_break with Some pick -> tie_break t pick | None -> ());
    let s = t.cand_shard in
    let lane = t.lanes.(s) in
    if t.cand_wheel then run_wheel_head t lane t.wheels.(s)
    else run_queue_head t lane t.queues.(s)
  end

(* One lane's share of a parallel dispatch window: drain the lane's own
   queue and wheel strictly below the window end (and at most to the
   horizon), logging one mark per dispatch. Runs on its own domain; it
   only touches lane-owned state, performs pure reads of the graph and
   clocks, and routes cross-lane deliveries through the lane's outbox. *)
let lane_window_loop t lane ~wstop ~horizon =
  let s = lane.ls in
  let upto = Float.min wstop horizon in
  let continue_ = ref true in
  while !continue_ do
    if lane.lcre >= cre_mask - cre_slack then
      (* Rank block nearly exhausted: stop and let the barrier re-open a
         fresh window (unreachable in practice — 2^40 creations). *)
      continue_ := false
    else begin
      let wheel = head t s ~upto in
      let et = lane.lf.lhead in
      if et < wstop && et <= horizon then begin
        lane.lf.lnow <- et;
        if wheel then begin
          let w = t.wheels.(s) in
          lane_mark lane ~time:et ~seq:(Timewheel.top_seq w);
          run_wheel_head t lane w
        end
        else begin
          let q = t.queues.(s) in
          lane_mark lane ~time:et ~seq:(Equeue.top_seq q);
          run_queue_head t lane q
        end
      end
      else continue_ := false
    end
  done

(* The merge barrier: replay the window's lanes' dispatch logs in the
   global (time, rank) order — exactly the order the sequential loop
   would have dispatched them — assigning each window creation the dense
   final rank the sequential run's counter would have produced, and
   appending the buffered trace entries in that same order. A
   provisional rank is always resolvable when it matters: its creator
   dispatched earlier in the same lane's log, so by the time the mark
   can win the merge its final rank was already assigned (a stale read
   during the scan can only involve a mark that loses on time anyway).

   Instead of re-ranking one mark at a time, the merge consumes marks in
   per-lane runs: once a lane's head wins, every following mark of that
   lane strictly below the other lanes' earliest head time must also win
   — no rank comparison can reorder across a strict time gap — so the
   run's creations take a contiguous block of final ranks in one pass
   and its trace entries replay in one sweep. *)
let barrier_merge t k =
  let members = t.w_actives in
  let heads = Array.make k 0 in
  for x = 0 to k - 1 do
    let lane = members.(x) in
    (* A table covers one window, so growth need not keep old ranks. *)
    if Array.length lane.lfinal < lane.lcre then
      lane.lfinal <- Array.make (max 1024 (2 * lane.lcre)) 0
  done;
  let resolve lane seq =
    if seq >= prov_flag then lane.lfinal.(seq land cre_mask) else seq
  in
  let running = ref true in
  while !running do
    let best = ref (-1) in
    let best_t = ref infinity in
    let best_s = ref max_int in
    for x = 0 to k - 1 do
      let lane = members.(x) in
      let h = heads.(x) in
      if h < lane.mlen then begin
        let tm = lane.mt.(h) in
        if tm < !best_t then begin
          best := x;
          best_t := tm;
          best_s := resolve lane lane.mseq.(h)
        end
        else if tm = !best_t then begin
          let sq = resolve lane lane.mseq.(h) in
          if sq < !best_s then begin
            best := x;
            best_s := sq
          end
        end
      end
    done;
    if !best < 0 then running := false
    else begin
      let x = !best in
      let lane = members.(x) in
      let h0 = heads.(x) in
      (* Earliest head time among the other lanes bounds the run. *)
      let stop = ref infinity in
      for y = 0 to k - 1 do
        if y <> x then begin
          let l2 = members.(y) in
          let h2 = heads.(y) in
          if h2 < l2.mlen && l2.mt.(h2) < !stop then stop := l2.mt.(h2)
        end
      done;
      let stop = !stop in
      let hend = ref (h0 + 1) in
      while !hend < lane.mlen && lane.mt.(!hend) < stop do incr hend done;
      let hend = !hend in
      let cre0 = lane.mcre.(h0) in
      let cre1 = if hend < lane.mlen then lane.mcre.(hend) else lane.lcre in
      let fin = lane.lfinal in
      let base = t.next_seq - cre0 in
      for j = cre0 to cre1 - 1 do
        Array.unsafe_set fin j (base + j)
      done;
      t.next_seq <- base + cre1;
      if t.log_on then begin
        let e1 = if hend < lane.mlen then lane.ment.(hend) else lane.blen in
        for e = lane.ment.(h0) to e1 - 1 do
          Trace.append_entry t.trace ~time:lane.bt.(e)
            (Trace.kind_of_index lane.bk.(e))
            lane.ba.(e) lane.bb.(e) lane.bc.(e)
        done
      end;
      heads.(x) <- hend
    end
  done

(* Run one window [cand_time, wstop) on every lane with work below its
   stop, then close it with its merge barrier (DESIGN §14): rewrite
   every provisional rank (queues, wheels, outboxes) to its final rank,
   drain the outboxes into the owners' queues, fold the buffered
   counters and deltas, and reset the lanes. After the barrier the
   engine state is exactly what the sequential loop would have produced
   at this point. The lane set
   depends only on engine state, never on the executor, so the window
   structure (and the trace) is identical at every domain count. *)
let run_window t ~wstop ~horizon =
  let tr = t.trace in
  t.fs.whorizon <- horizon;
  (match t.executor with
  | Some _ when Array.length t.lane_thunks <> t.shards ->
    t.lane_thunks <-
      Array.init t.shards (fun s ->
          let lane = t.lanes.(s) in
          fun () ->
            lane_window_loop t lane ~wstop:lane.lf.lwstop
              ~horizon:t.fs.whorizon)
  | _ -> ());
  (* Only lanes dispatch inside a window, so the lanes' event-count delta
     is exactly what the window dispatched — stale wheel surfacings,
     which the dispatch log also marks, are not events. *)
  let events0 = events_processed t in
  let na = ref 0 in
  for s = 0 to t.shards - 1 do
    let lane = t.lanes.(s) in
    let lh = lane.lf.lhead in
    if lh < wstop && lh <= horizon then begin
      t.w_actives.(!na) <- lane;
      incr na;
      lane.lpar <- true;
      lane.lf.lwstop <- wstop
    end
  done;
  let na = !na in
  (match t.executor with
  | Some exec when na > 1 ->
    exec (Array.init na (fun i -> t.lane_thunks.(t.w_actives.(i).ls)))
  | _ ->
    for i = 0 to na - 1 do
      lane_window_loop t t.w_actives.(i) ~wstop ~horizon
    done);
  barrier_merge t na;
  let stop = Float.min wstop horizon in
  Trace.note_window tr ~span:(stop -. t.fs.cand_time)
    ~events:(events_processed t - events0);
  for x = 0 to na - 1 do
    let lane = t.w_actives.(x) in
    Equeue.remap_batch t.queues.(lane.ls) ~finals:lane.lfinal;
    Timewheel.remap_batch t.wheels.(lane.ls) ~finals:lane.lfinal;
    let ob = t.outboxes.(lane.ls) in
    if not (Equeue.is_empty ob) then begin
      Trace.note_cross tr (Equeue.size ob);
      Equeue.remap_batch ob ~finals:lane.lfinal
    end;
    Trace.merge_counts tr lane.lcounters;
    Array.fill lane.lcounters 0 Trace.kind_count 0;
    lane.lcre <- 0;
    lane.mlen <- 0;
    lane.blen <- 0;
    lane.lpar <- false
  done;
  (* Only deliveries cross lanes ([push_from]), so [b] names the owner. *)
  for x = 0 to na - 1 do
    let ob = t.outboxes.(t.w_actives.(x).ls) in
    while not (Equeue.is_empty ob) do
      let time = Equeue.next_time ob and seq = Equeue.top_seq ob in
      Equeue.pop ob;
      Equeue.push t.queues.(shard_of t (Equeue.ev_b ob)) ~time ~seq
        ~kind:(Equeue.ev_kind ob) ~a:(Equeue.ev_a ob) ~b:(Equeue.ev_b ob)
        ~c:(Equeue.ev_c ob) ~d:(Equeue.ev_d ob) (Equeue.ev_payload ob);
      Equeue.release ob
    done
  done;
  t.fs.now <- stop

let set_executor t exec = t.executor <- exec

let run_until t horizon =
  if Float.is_nan horizon then invalid_arg "Engine.run_until: NaN horizon";
  if horizon < t.fs.now then invalid_arg "Engine.run_until: horizon in the past";
  start t;
  let running = ref true in
  while !running do
    select t ~horizon;
    if t.fs.cand_time <= horizon then begin
      assert (t.fs.cand_time >= t.fs.now);
      if t.par_ok && not t.cand_ctrl then begin
        (* Window gate: the window [cand_time, wstop) must end
           strictly after it starts, stop before the next control event
           (whose dispatch is order-sensitive and sequential), and have
           at least two lanes with work — otherwise the sequential step
           is both correct and cheaper. The gate depends only on engine
           state, never on the executor, so the window structure (and
           the trace) is identical at every domain count. *)
        let ctrl_next = Equeue.next_time t.control in
        let wstop =
          Float.min (t.fs.cand_time +. t.delay.Delay.min_lat) ctrl_next
        in
        let active = ref 0 in
        for s = 0 to t.shards - 1 do
          let lh = t.lanes.(s).lf.lhead in
          if lh < wstop && lh <= horizon then incr active
        done;
        if wstop > t.fs.cand_time && !active >= 2 then
          run_window t ~wstop ~horizon
        else seq_step t
      end
      else seq_step t
    end
    else running := false
  done;
  t.fs.now <- horizon
