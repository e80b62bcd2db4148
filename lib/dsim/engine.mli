(** Discrete-event simulator for dynamic networks of drifting-clock nodes.

    The engine realizes the model of Section 3.2 of the paper:

    - a node set [0 .. n-1] (growable through {!add_node}), each with a
      hardware clock that is an arbitrary piecewise-linear function
      within the drift bound;
    - an undirected dynamic edge set changed by scheduled add/remove
      events;
    - discovery: endpoints learn of a persistent change [discovery_lag]
      after it happens; changes reversed within the lag are suppressed
      (transient changes "may or may not" be detected);
    - reliable FIFO links: a message sent on a present edge is delivered
      after a policy-chosen delay in [\[0, T\]], unless the edge changes
      while the message is in flight, in which case it is dropped (and the
      removal is discovered within the lag);
    - subjective-time timers: nodes set alarms measured on their own
      hardware clocks; the engine fires them at the exact real time using
      the clock inverse.

    Node algorithms see the network only through {!ctx}: their hardware
    clock, message sends, and timers. Real time is not exposed to node
    code. The engine is generic in the message type ['msg] and the timer
    label type ['timer]; {!create}'s [timer_label] encodes labels as
    ints. *)

type ('msg, 'timer) t

type ('msg, 'timer) ctx
(** Node-side capability handle. *)

type ('msg, 'timer) handlers = {
  on_init : unit -> unit;
      (** Called once at time 0, before any event is processed. *)
  on_discover_add : int -> unit;
      (** [on_discover_add v]: a [discover(add({u, v}))] event (the peer's
          id is [v]). *)
  on_discover_remove : int -> unit;
  on_receive : int -> 'msg -> unit;
      (** [on_receive src msg]. *)
  on_timer : 'timer -> unit;
}

(** {1 Construction} *)

val create :
  clocks:Hwclock.t array ->
  delay:Delay.t ->
  ?discovery_lag:float ->
  ?initial_edges:(int * int) list ->
  ?trace:Trace.t ->
  timer_label:('timer -> int) ->
  ?scheduler:[ `Wheel of float ] ->
  ?shards:int ->
  ?faults:Fault.schedule ->
  ?fault_seed:int ->
  ?corrupt_msg:(src:int -> Prng.t -> 'msg -> 'msg) ->
  unit ->
  ('msg, 'timer) t
(** [create ~clocks ~delay ()] builds an engine over
    [Array.length clocks] nodes. [discovery_lag] (default [0.]) is the
    fixed time between a topology change and its discovery by the
    endpoints; the paper's [D] is an upper bound on it. [initial_edges]
    exist from time 0 and are discovered at time [0.].

    [timer_label] encodes a timer label as a non-negative int. Armed
    timers are keyed by it — distinct labels of one node must encode to
    distinct ints, and re-arming an equal encoding supersedes the pending
    timer — and [Timer_fire]/[Timer_stale] trace records carry it.

    Armed timers wait in a hierarchical timer wheel, not in the event
    queue: O(1) arm/cancel/re-arm in dense int arrays, and superseded
    entries never occupy queue slots, so the queue holds only
    deliveries, discoveries and callbacks and its size does not grow
    with message rate times the timeout span. Wheel entries draw their
    tie-break ranks from the same sequence counter as queued events and
    surface in the one total [(time, seq)] order. [scheduler] sets the
    wheel's level-0 bucket width, [`Wheel granularity]; it defaults to
    a sixteenth of the delay policy's bound (1 for a zero bound).
    Granularity changes speed, never the dispatch order or the trace.

    [shards] (default 1) splits the node ids into that many equal
    contiguous ranges, each owning its own event queue and timer wheel.
    When the delay policy is pure with positive [min_lat] and no faults
    are injected, the run loop dispatches the shards in parallel
    windows — on one domain by default, or on several via
    {!set_executor}. A window spans [min_lat] from the earliest pending
    event, cut short by the next control event, and closes with its own
    merge barrier (DESIGN §14): no event created inside it can land
    inside it on another shard. Events created inside a window carry
    provisional per-shard rank blocks that the barrier rewrites to the
    exact dense ranks the sequential run would have assigned, so the
    dispatch order and trace are byte-identical at every shard count
    {e and} every domain count, including [shards = 1]. Inside a window
    only node events (deliveries, discoveries, absence notices, timers)
    and callbacks declared commuting ({!at}) dispatch; every
    order-sensitive global event — topology changes, faults, plain
    callbacks — waits in a dedicated control queue and dispatches
    sequentially between windows. Raises [Invalid_argument] when
    [shards < 1].

    [faults] (default []) is a deterministic fault schedule (validated
    against [n]; raises [Invalid_argument] on a malformed one). Crash and
    restart ops flow through the shared event queue as first-class traced
    events ({!Trace.Fault_crash} / {!Trace.Fault_restart}): a crash
    purges the node's armed timers and FIFO floors, drops everything it
    had in flight, and suppresses every event addressed to it until its
    restart, which invokes the handler registered with {!on_restart} (so
    the algorithm resets — or, under {!Trace.Fault_corrupt}, corrupts —
    its own state) and re-discovers the current neighborhood within the
    lag. Duplication/reordering windows act on the send path, and
    Byzantine windows pass outgoing messages through [corrupt_msg]
    (traced as {!Trace.Fault_byzantine_msg}). All fault-local randomness
    is drawn from a dedicated PRNG seeded by [fault_seed] (default 0) in
    dispatch order, so fault runs replay byte-identically. An empty
    schedule allocates no fault state and adds a single tag check to the
    hot paths. *)

val install : ('msg, 'timer) t -> int -> (('msg, 'timer) ctx -> ('msg, 'timer) handlers) -> unit
(** Install node [i]'s algorithm. Must be called for every node before
    running. The builder receives the node's {!ctx}. After the engine has
    started, only a node without handlers — one that just joined through
    {!add_node} — may be installed; its [on_init] then runs immediately.
    Re-installing a live node raises [Invalid_argument]. *)

val add_node : ('msg, 'timer) t -> clock:Hwclock.t -> int
(** Grow the network by one node and return its id (the previous node
    count). The node starts isolated and without handlers; call {!install}
    to give it an algorithm and {!schedule_edge_add} to connect it. Ids
    are never reused, and every engine structure grows by O(1) amortized —
    joining nodes never re-keys existing state. *)

(** {1 Node-side API (used from handlers)} *)

val node_id : ('msg, 'timer) ctx -> int

val node_count : ('msg, 'timer) ctx -> int

val hardware_clock : ('msg, 'timer) ctx -> float
(** The node's hardware clock value at the current instant. *)

val send : ('msg, 'timer) ctx -> dst:int -> 'msg -> unit
(** Send a message. If the edge to [dst] is currently absent the message
    is dropped and the absence will be (re-)discovered within the lag. *)

val set_timer : ('msg, 'timer) ctx -> after:float -> 'timer -> unit
(** Arm (or re-arm) the timer labelled by the given value to fire after
    [after] subjective time units. A previously pending timer with an
    equal label is superseded. *)

val cancel_timer : ('msg, 'timer) ctx -> 'timer -> unit

val on_restart : ('msg, 'timer) ctx -> (corrupt:Prng.t option -> unit) -> unit
(** Register the node's restart entry point, called when a scheduled
    {!Fault.Restart} op fires. The handler must reinitialize the node's
    algorithm state (the engine has already purged its timers and FIFO
    floors) and re-arm its initial timers. [corrupt] is [Some prng] when
    the op asked for arbitrary-state corruption: the handler should then
    draw a corrupted-but-type-correct state from the PRNG instead of the
    initial one. Without a registered handler a restart only restores
    engine-side liveness. *)

(** {1 Environment control (harness side)} *)

val now : ('msg, 'timer) t -> float

val graph : ('msg, 'timer) t -> Dyngraph.t
(** Live view of the dynamic edge set. Treat as read-only; use the
    scheduling functions to change topology. *)

val clock : ('msg, 'timer) t -> int -> Hwclock.t

val trace : ('msg, 'timer) t -> Trace.t
(** The trace the engine records into — the one passed to {!create}, or
    the private counters-only trace it made otherwise. *)

val schedule_edge_add : ('msg, 'timer) t -> at:float -> int -> int -> unit

val schedule_edge_remove : ('msg, 'timer) t -> at:float -> int -> int -> unit

val at :
  ?commuting:bool -> ('msg, 'timer) t -> time:float -> (unit -> unit) -> unit
(** Run a callback (e.g. a metrics probe) at the given time.

    By default a callback is a control event: under sharding it stops
    any parallel window at its timestamp and runs sequentially, which is
    always safe. Passing [~commuting:true] promises the callback
    {e commutes} with node events — it only reads engine state and/or
    schedules further commuting callbacks, and its observable behavior
    does not depend on whether same-window node events at other shards
    have dispatched yet (sampled values may differ; use it for probes
    whose output is not compared across shard counts, or that read only
    state settled before the window). A commuting callback rides the
    lane queues like a node event and no longer cuts windows short.
    Inside a parallel window it must not call the non-commuting
    scheduling entry points ({!schedule_edge_add}, {!at} without
    [~commuting], ...) — those fail loudly rather than race — and
    {!now} may lag the callback's own timestamp; use the time it was
    scheduled for. *)

val run_until : ('msg, 'timer) t -> float -> unit
(** Process all events with timestamp [<= horizon], then advance the
    current time to [horizon]. May be called repeatedly with increasing
    horizons. *)

val set_executor :
  ('msg, 'timer) t -> ((unit -> unit) array -> unit) option -> unit
(** Install (or clear) the executor that runs a parallel dispatch
    window's per-lane thunks. The engine calls it once per window, with
    one thunk per lane that has work in the window, and requires every
    thunk to have completed when the call returns (the window's merge
    barrier follows at once) — {!Runner.run} on a scoped pool is the intended
    implementation. [None] (the default) runs the thunks in the calling
    domain, in index order. The executor only decides {e where} thunks
    run: window formation, dispatch order and the trace are identical
    with and without one, which is what the parity suite pins. Windows
    only form at all when [shards > 1], the delay policy is pure with
    positive [min_lat] and no fault schedule is installed; on every
    other configuration the engine
    stays on the sequential dispatch path and the executor is never
    called. *)

val set_tie_break : ('msg, 'timer) t -> (int -> int) option -> unit
(** Install (or clear) the adversary tie-break hook used by the bounded
    model explorer. When set, each time the dispatch loop is about to
    dispatch an event it first takes the whole group of queue and wheel
    entries due at that instant — live or stale timer entries alike —
    out of both structures and calls the hook with the group size [k];
    the hook returns the index (in (time, seq) order, i.e. scheduling
    order) of the entry to dispatch next. Returning out-of-range raises.
    The hook is consulted before {e every} dispatch, wheel timers
    included and groups of size 1 too (where it must return 0) — this
    doubles as a clean between-events callback for probing, since no
    handler is mid-flight when it runs; {!pending_events} read inside it
    excludes the group. Events the chosen handler schedules at the same
    instant join the next group, so an enumerating caller visits every
    permutation of a same-instant group one choice at a time, and a hook
    that always returns 0 reproduces the default (time, seq) order
    exactly. Only supported with a single shard; setting it on a sharded
    engine raises [Invalid_argument]. *)

val events_processed : ('msg, 'timer) t -> int
(** Events dispatched so far. Stale timer entries (cancelled or
    superseded) are discarded when they surface from the wheel and are
    {e not} counted. *)

val pending_events : ('msg, 'timer) t -> int
(** Pending events that will actually dispatch: the queue and wheel
    sizes minus the stale timer entries still awaiting lazy removal. *)

val queue_depth : ('msg, 'timer) t -> int
(** Raw size of the event queues (and pending outbox entries) alone.
    Timers wait in the wheels, so sustained timer re-arm traffic leaves
    it bounded by the in-flight message and discovery count. *)

val shards : ('msg, 'timer) t -> int

val par_blocker : ('msg, 'timer) t -> string option
(** [None] when this engine can form parallel dispatch windows; otherwise
    a one-line reason for the sequential fallback (single shard, impure
    or zero-lookahead delay policy, fault injection) — printed by a
    sharded [gcs_sim sim] run. *)

val footprint_words : ('msg, 'timer) t -> int
(** Words currently allocated by engine-owned storage: event queues,
    outboxes, timer wheels, the lanes' pooled window buffers (final-rank
    table, dispatch log, trace-entry buffer), per-node FIFO/absence/armed
    tables and the dynamic graph. Grows as O(n + edges ever present), never O(n²) —
    pinned by the scaling tests. *)

val live_timers : ('msg, 'timer) t -> int
(** Currently armed timer labels across all nodes (each cancel or re-arm
    retires the previous entry). *)

val alive : ('msg, 'timer) t -> int -> bool
(** Is the node currently up? Always [true] without a fault schedule. *)
