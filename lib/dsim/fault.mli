(** Deterministic fault schedules for the engine.

    A schedule is a list of fault operations fixed before the run starts:
    node crashes and restarts (with optional arbitrary-state corruption at
    restart, the self-stabilization question), bounded duplication and
    within-[T] reordering windows on directed links, and bounded Byzantine
    windows during which a node's outgoing messages are corrupted in
    flight. The engine applies the schedule as first-class traced events
    ({!Trace.Fault_crash} etc.), identically at every shard count.

    Schedules have a one-token textual form (no spaces, ops joined by
    [';']) so they can ride inside {!Audit.Scenario} replay specs:

    {v
      crash@T:N          node N crashes at time T
      restart@T:N        node N restarts at time T with fresh state
      restart@T:N!       ... restarting from corrupted state
      dup@T1-T2:S>D      sends S->D in [T1,T2] are delivered twice
      reorder@T1-T2:S>D  sends S->D in [T1,T2] skip the FIFO floor
      byz@T1-T2:N        N's outgoing messages in [T1,T2] are corrupted
    v} *)

type op =
  | Crash of { node : int; at : float }
  | Restart of { node : int; at : float; corrupt : bool }
  | Duplicate of { src : int; dst : int; from_ : float; until : float }
  | Reorder of { src : int; dst : int; from_ : float; until : float }
  | Byzantine of { node : int; from_ : float; until : float }

type schedule = op list

val validate : n:int -> schedule -> (unit, string) result
(** Checks node ids are in range, times (both ends of every window
    included) are finite and non-negative, window ends don't precede their starts, and each node's crash/restart
    ops alternate in time order starting with a crash. *)

val op_time : op -> float
(** When the op takes effect: [at] for crash/restart, [from_] for
    windows. *)

val first_time : schedule -> float option
val last_time : schedule -> float option
(** Earliest effect time / latest time at which any op is still active
    ([at] for crash/restart, [until] for windows). [None] on []. *)

val exact_float : float -> string
(** The first of [%.15g], [%.16g] and [%.17g] that [float_of_string]
    reads back to the same float: the shortest decimal that replays bit
    for bit. Every replay grammar (this one, [Audit.Scenario],
    [Mcheck.Spec], [gcs_sim sim]'s [run:] line) prints floats with it. *)

val to_spec : schedule -> string
(** One token: ops joined by [';'] in the grammar above, times printed
    with {!exact_float}. [""] on []. *)

val of_spec : string -> (schedule, string) result
(** Inverse of {!to_spec}. Does not range-check nodes (use {!validate}
    once [n] is known). *)

val generate : Prng.t -> n:int -> horizon:float -> schedule
(** Draw a small random schedule: up to two crash/restart pairs (possibly
    corrupting), up to one duplication or reordering window, and up to one
    Byzantine window. All times are quantized to 0.25. *)

val mark_down : schedule -> at:float -> Bytes.t -> unit
(** For each node a crash or restart op names, set its byte to ['\001']
    if the schedule has it down (crashed, not yet restarted) at [at],
    else ['\000']; leave the rest. Down intervals are closed on the
    left: a node is dead from its crash instant up to, but excluding,
    its restart instant. *)

val dead_during : schedule -> node:int -> float -> float -> bool
(** Does the node's down time intersect the closed interval [[t0, t1]]? *)

val restarted_in : schedule -> node:int -> float -> float -> bool
(** Did the node restart at some time in [(t0, t1]]? *)

val crashed_in : schedule -> node:int -> float -> float -> bool
(** Did the node crash at some time in [(t0, t1]]? *)

val duplicated : schedule -> src:int -> dst:int -> at:float -> bool
(** Is a duplication window for the directed link active at [at]? *)

val reordered : schedule -> src:int -> dst:int -> at:float -> bool

val byzantine : schedule -> node:int -> at:float -> bool
(** Is a Byzantine window for the node's outgoing messages active at
    [at]? *)
