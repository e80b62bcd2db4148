(** Lightweight execution tracing: per-kind O(1) event counters, an
    optional consumer that sees every structured record as it happens,
    and an optional bounded log that drops records past its limit.

    Recording is allocation-free when neither is on (the default): a
    record is then a counter increment. *)

type kind =
  | Send
  | Deliver
  | Drop_no_edge     (** send attempted on an absent edge *)
  | Drop_in_flight   (** message lost because the edge changed in flight *)
  | Drop_lossy       (** silent loss injected by a lossy delay policy *)
  | Edge_add
  | Edge_remove
  | Discover_add
  | Discover_remove
  | Discover_stale   (** discovery suppressed: the change was superseded *)
  | Timer_fire
  | Timer_stale      (** cancelled or superseded timer *)
  | Fault_crash      (** injected crash: node loses all state *)
  | Fault_restart    (** injected restart: node resumes from scratch *)
  | Fault_corrupt    (** the restart resumed from corrupted state *)
  | Fault_byzantine_msg  (** a Byzantine sender corrupted this message *)
  | Fault_duplicate  (** an extra copy of this send was injected *)
  | Delay_clamped
      (** a user delay policy drew outside [0, bound], or NaN, and the
          engine clamped it — almost always a broken adversary policy *)

val kind_to_string : kind -> string

val all_kinds : kind list

val kind_count : int
(** Number of kinds; valid indices are [0 .. kind_count - 1]. *)

val kind_index : kind -> int
(** Dense index of a kind, in {!all_kinds} order. Together with
    {!kind_of_index} this is the seam the engine's parallel dispatch
    windows use to buffer records as plain integers per shard lane and
    merge them back deterministically at the barrier (DESIGN §14). *)

val kind_of_index : int -> kind
(** Inverse of {!kind_index}. Raises on out-of-range indices. *)

type entry = { time : float; kind : kind; a : int; b : int; c : int }
(** A structured record: the event kind plus up to three integer fields
    whose meaning depends on the kind — [(src, dst, epoch)] for message
    events, [(u, v, -1)] for topology events, [(node, peer, epoch)] for
    discovery events, [(node, label, -1)] for timers, where [label] is
    the engine's encoded timer label ([-1] when the engine was built
    without [timer_label]). Unused fields are [-1]. *)

type t

val create : ?log_limit:int -> ?on_entry:(entry -> unit) -> unit -> t
(** [on_entry] (default none) is called with every entry as it is
    recorded, in the sequential order at every shard and domain count
    (window entries replay at the merge barrier). Create the trace
    before the engine: it records the initial topology at creation.
    [log_limit] bounds the retained entries (default 0: no log). *)

val record : t -> time:float -> kind -> int -> int -> int -> unit
(** [record t ~time kind a b c] bumps the kind's counter and, only if a
    consumer or the log is on, passes on and retains the structured
    entry. Pass [-1] for fields the kind does not use. *)

val wants_entries : t -> bool
(** Whether a consumer is attached or [log_limit > 0]. The engine's
    parallel lanes only buffer structured entries when this holds. *)

val append_entry : t -> time:float -> kind -> int -> int -> int -> unit
(** Pass an entry to the consumer and the log {e without} bumping its
    counter. Only for replaying records whose counters were already
    accounted for — the engine's barrier merge folds per-lane counter
    deltas via {!merge_counts} and appends the buffered entries here, in
    the global [(time, seq)] order. *)

val merge_counts : t -> int array -> unit
(** [merge_counts t deltas] adds [deltas] (indexed by {!kind_index},
    length {!kind_count}) into the counters. *)

(** {2 Parallel-dispatch shape counters}

    Maintained by the engine's coordinating domain only (never from lane
    domains), so reads race with nothing. They describe the {e shape} of
    parallel dispatch — how many windows formed, how much they ran and
    how much crossed shards — and are kept out of the per-kind counters
    and the CSV because they depend on [(shards, jobs)] while the trace
    proper must not (DESIGN §14). *)

val note_window : t -> span:float -> events:int -> unit
(** One parallel window closed by its merge barrier, covering [span]
    simulated time and dispatching [events] events. *)

val note_cross : t -> int -> unit
(** [n] more events crossed a shard boundary in flight. *)

val windows : t -> int
(** Parallel windows formed. *)

val barriers : t -> int
(** Merge barriers paid. Every window closes with its own barrier, so
    this equals {!windows}; both are kept for the readers that report
    them separately. *)

val window_events : t -> int
(** Events dispatched inside windows (the rest ran sequentially). *)

val window_span : t -> float
(** Total simulated time covered by windows. *)

val cross_shard_events : t -> int
(** Events that crossed a shard boundary through an outbox. *)

val count : t -> kind -> int

val total : t -> int

val counts : t -> (kind * int) list
(** All per-kind counters, in {!all_kinds} order. *)

val entries : t -> entry list
(** Retained entries, oldest first. *)

val detail : entry -> string
(** The entry's detail rendered as the engine's traditional short form,
    e.g. ["3->4"], ["{0,1}"], ["2:{2,5}"]. *)

val pp_entry : Format.formatter -> entry -> unit
(** One line: time, kind, detail. *)

val csv_header : string
(** ["time,kind,a,b,c\n"]. *)

val csv_row : entry -> string
(** One newline-terminated CSV row; what {!to_csv} emits per entry. *)

val to_csv : t -> string
(** Retained entries as CSV: {!csv_header}, then one {!csv_row} each. *)

val pp_summary : Format.formatter -> t -> unit
