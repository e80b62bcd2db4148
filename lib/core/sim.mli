(** Full-simulation assembly: an engine, one algorithm instance per node,
    and uniform access to their state.

    This is the main entry point of the library: pick parameters, clocks,
    a delay policy and an initial topology, then run and measure. *)

type algo =
  | Gradient
      (** Algorithm 2 — the paper's dynamic gradient algorithm *)
  | Flat_gradient
      (** ablation: the same algorithm with the constant tolerance
          [B(Δt) = B0] (no decay on new edges) *)
  | Max_only
      (** baseline: chase the max estimate ({!Baseline_max}) *)
  | Weighted of Hetero.link_bound
      (** Section 7 extension: Algorithm 2 with a per-link tolerance
          [B_e] and timeout [ΔT'_e] ({!Hetero.node}); pair it with
          {!Hetero.delay_policy} over the same link bounds *)

val algo_to_string : algo -> string

type config = {
  params : Params.t;
  clocks : Dsim.Hwclock.t array;
  delay : Dsim.Delay.t;
  discovery_lag : float;
  initial_edges : (int * int) list;
  algo : algo;
  trace : Dsim.Trace.t option;
  shards : int;
  faults : Dsim.Fault.schedule;
  fault_seed : int;
}

val config :
  ?algo:algo ->
  ?discovery_lag:float ->
  ?trace:Dsim.Trace.t ->
  ?shards:int ->
  ?faults:Dsim.Fault.schedule ->
  ?fault_seed:int ->
  params:Params.t ->
  clocks:Dsim.Hwclock.t array ->
  delay:Dsim.Delay.t ->
  initial_edges:(int * int) list ->
  unit ->
  config
(** [discovery_lag] defaults to [0.9 *. params.discovery_bound]; it must
    not exceed [params.discovery_bound]. Raises [Invalid_argument] if the
    clocks violate the drift bound, the array length differs from
    [params.n], or [faults] fails {!Dsim.Fault.validate}. Timers wait in
    the engine's timer wheel with [ΔH / 16] granules. [shards] (default
    1) splits the engine's node state into that many contiguous id
    ranges, each an independently scheduled lane; executions are
    byte-identical at every value (see {!Dsim.Engine.create}).
    [faults] (default none) is a deterministic fault-injection schedule,
    replayed from [fault_seed]; Byzantine windows corrupt outgoing
    ⟨L, Lmax⟩ upward by a few [b0] units. *)

type t

val create : config -> t

val engine : t -> (Proto.message, Proto.timer) Dsim.Engine.t

val trace : t -> Dsim.Trace.t
(** The engine's trace: the one given in the config, or the engine's own
    counters-only trace when none was. *)

val params : t -> Params.t

val run_until : t -> float -> unit

val now : t -> float

(** {1 Node state} *)

val logical_clock : t -> int -> float

val lmax : t -> int -> float

val view : t -> Metrics.view

val gradient_node : t -> int -> Node.t option
(** The underlying {!Node.t} when running [Gradient], [Flat_gradient] or
    [Weighted]. *)

val total_messages : t -> int

val total_jumps : t -> int

val alive : t -> int -> bool
(** False while node [i] is crashed (always true without faults). *)

val faults : t -> Dsim.Fault.schedule
(** The fault schedule this simulation runs under (possibly empty). *)

(** {1 Topology scheduling (thin wrappers over the engine)} *)

val add_edge_at : t -> at:float -> int -> int -> unit

val remove_edge_at : t -> at:float -> int -> int -> unit
