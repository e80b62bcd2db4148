(** Conformance auditor: reads a structured trace and checks every
    obligation the model of Section 3.2 places on the simulator.

    The auditor reconstructs the dynamic edge set from [Edge_add] /
    [Edge_remove] entries and a per-directed-link, per-epoch send queue
    from [Send] entries, then verifies:

    - {b FIFO delivery within the delay bound}: each [Deliver] consumes
      the oldest outstanding send of its link and epoch; the implied
      delay must lie in [[0, T]]. Out-of-order delivery surfaces either
      as a delivery with no outstanding send or as a head-of-queue delay
      exceeding [T].
    - {b no delivery across epochs}: a [Deliver] whose epoch is not the
      edge's current epoch, or whose edge is absent, is a violation —
      in-flight messages must be dropped when their edge changes.
    - {b drop justification}: [Drop_in_flight] is only legal if the
      edge's epoch really did change since the send; [Drop_no_edge] and
      absence notifications are only legal while the edge is absent.
    - {b discovery within D}: every topology change obliges both
      endpoints to observe a matching discovery within
      [discovery_bound], unless a newer change to the same edge
      supersedes it first (the paper's transient-change licence).
    - {b liveness of surviving links} (optional, [check_gaps]): with
      every algorithm broadcasting each [ΔH] of subjective time,
      consecutive receipts on an unchanged link may be at most
      [ΔT = T + ΔH/(1-ρ)] apart — the window that calibrates the
      [ΔT'] lost-timeout (Section 5).
    - {b lost-timer cadence}: a
      [Timer_fire] whose label encodes [lost(v)] (label [v + 1], see
      {!Gcs.Proto.timer_label}) must come at least [ΔT'/(1+ρ)] real time
      after the last delivery from [v] — each receipt re-arms the timer
      for subjective [ΔT'], and a clock runs at most [(1+ρ)] fast.
      A gap of exactly zero (a delivery at the fire's own timestamp) is
      not premature: the fire was armed by the receipt before it.
      Traces recorded without timer labels (label [-1]) are skipped.

    When the execution ran under a fault schedule, pass the same schedule
    here: obligations touching crashed nodes are suspended (gap checks
    across a sender outage, discovery by a dead endpoint, lateness of the
    restart re-discovery), and each traced [Fault_duplicate] licenses one
    extra deliver/drop with no matching send on its link. Byzantine
    windows corrupt content, not timing, so they need no excusal here.

    The auditor needs every structured entry: feed it online, passing
    {!step} to [Dsim.Trace.create ~on_entry] before the engine exists. *)

type config = {
  nodes : int;
      (** n, from [params.n]: every node id a record names lies in [[0, n)] *)
  delay_bound : float;  (** T *)
  discovery_bound : float;  (** D *)
  delta_t : float;  (** ΔT, the max gap between receipts on a live link *)
  min_lost_gap : float;
      (** ΔT'/(1+ρ), the min real time from a receipt to a lost-fire *)
  horizon : float;  (** end of the audited execution *)
  check_gaps : bool;
  faults : Dsim.Fault.schedule;  (** the schedule the execution ran under *)
}

val of_params :
  Gcs.Params.t ->
  horizon:float ->
  ?check_gaps:bool ->
  ?faults:Dsim.Fault.schedule ->
  unit ->
  config
(** [nodes] is [params.n]. [check_gaps] defaults to [true]; disable it for executions whose
    algorithm does not broadcast every [ΔH] or whose delay policy drops
    messages beyond what the trace records. [faults] defaults to none;
    it must match the schedule the traced execution was run with. *)

val audit : config -> Dsim.Trace.entry list -> Report.t
(** Replay the entries (which must be in time order, as recorded) and
    return every violation found. Equivalent to {!create}, {!step} over
    each entry, then {!finish}. *)

(** {1 Incremental interface}

    The same checks, fed one entry at a time — this is what [sim
    --audit], {!Scenario.run} and the bounded model explorer use to audit
    a trace as the engine produces it, and [audit] above is implemented
    on top of it, so the two can never diverge. *)

type state
(** In-progress audit: the reconstructed edge set, the pending sends of
    each directed link and the violations found so far. Each node keeps
    its links sorted by peer id; both directions of an edge are created
    together and share the edge's state, so a record costs one lookup.
    An edge carries its current epoch, presence and the one discovery
    obligation its newest change opened. A link holds its pending sends
    as one ring of (time, epoch) columns in send order, plus its
    receipt-gap anchor and duplication credits. Steps allocate only
    when a link or a ring is first created or grows, and when they
    report a violation. *)

val create : config -> state

val step : state -> Dsim.Trace.entry -> unit
(** Feed the next entry. Entries must arrive in recorded (time) order.
    Raises [Invalid_argument], naming the record's kind, when the entry
    names a node outside [[0, nodes)]. *)

val finish : state -> Report.t
(** Run the end-of-execution checks and return the full report. Call at
    most once; the state must not be stepped afterwards. The end-of-run
    violations follow the step-time ones in a fixed order: first each
    directed link in [(src, dst)] order, with its [undelivered-within-T]
    sends oldest first and then its final [receipt-gap-exceeds-dT]; then
    each edge in [(lo, hi)] order with its [missed-discovery]. *)

val violation_count : state -> int
(** Violations found so far, {e not} counting end-of-run checks — cheap
    enough to poll after every [step] so an explorer can abandon a branch
    at the first violation. *)
