(** Bounded exhaustive explorer over the real {!Dsim.Engine}.

    The explorer enumerates {e every} adversary choice sequence of a tiny
    configuration ({!Spec.t}): the per-message delay pick from a
    discretized grid, the dispatch order of same-instant event groups
    (via {!Dsim.Engine.set_tie_break}), and optionally churn and fault
    placement — and checks every resulting execution against the Section
    6 obligations with the {e same} checker code as the offline auditor
    ({!Audit.Conformance.step} fed incrementally, the
    {!Gcs.Invariant.checker} validity rules, and the Lemma 6.8 Lmax-lag
    rule {!Audit.Guarantees.lmax_lag}).

    There is no snapshotting: a branch is identified by its {e choice
    tape} (the option index taken at each choice point), and the engine's
    (time, seq) determinism contract (DESIGN §9) makes re-execution from
    a tape prefix byte-identical, so DFS backtracking is just "re-run
    with the incremented prefix". Visited states are pruned by a
    canonical state key (sorted live-edge set, quantized clock offsets,
    in-flight message multiset); a state reached again at an
    equal-or-greater depth is abandoned mid-run. *)

exception Replay_diverged of string
(** A forced tape choice was out of range for the choice point it landed
    on — the spec does not describe an execution of this configuration. *)

(** {1 Exploration} *)

type stats = {
  traces : int;  (** complete executions checked *)
  pruned : int;  (** branches abandoned at a visited state *)
  distinct_states : int;  (** canonical states in the visited set *)
  choice_points : int;  (** total adversary choices consumed *)
  events : int;  (** engine events dispatched, all branches *)
  max_depth : int;  (** longest choice tape seen *)
}

type counterexample = {
  spec : Spec.t;
      (** the input spec with [choices] set to the failing branch's full
          tape — a one-line, one-command repro (see {!Spec.to_spec}) *)
  report : Audit.Report.t;
}

type outcome = {
  stats : stats;
  violations : counterexample list;  (** in discovery order *)
  exhausted : bool;
      (** every branch to [depth] was explored or pruned; [false] when a
          budget or the violation cap stopped the search early *)
  truncated : bool;
      (** some branch had a real (multi-option) choice point beyond
          [depth] — deeper exploration could reach more states *)
}

val explore :
  ?max_states:int ->
  ?budget_ms:float ->
  ?max_violations:int ->
  ?quantum:float ->
  ?entry_shim:(Dsim.Trace.entry -> Dsim.Trace.entry list) ->
  ?view_shim:(Gcs.Metrics.view -> Gcs.Metrics.view) ->
  Spec.t ->
  outcome
(** Exhaust the choice tree of the spec's configuration up to its
    branching depth. [s.choices], when non-empty, roots the search at
    that forced prefix instead of the empty tape.

    [max_states] (default unlimited) and [budget_ms] (default unlimited;
    wall clock) are safety valves — crossing either stops the search with
    [exhausted = false]. [max_violations] (default 16) stops after that
    many counterexamples. [quantum] (default ΔH/8) is the clock-offset
    quantization of the canonical state key: smaller separates more
    states (slower, more faithful), larger merges more.

    [entry_shim] rewrites each trace entry before the incremental
    conformance checker sees it, and [view_shim] wraps the metrics view
    the validity probes read — both exist so tests can present a {e
    broken} engine to the checkers without breaking the real engine
    (default: identity). Raises [Invalid_argument] on an invalid spec. *)

type level = { at_depth : int; outcome : outcome }

val explore_deepening :
  ?max_states:int ->
  ?budget_ms:float ->
  ?max_violations:int ->
  ?quantum:float ->
  ?entry_shim:(Dsim.Trace.entry -> Dsim.Trace.entry list) ->
  ?view_shim:(Gcs.Metrics.view -> Gcs.Metrics.view) ->
  Spec.t ->
  level list
(** Iterative deepening: run {!explore} at doubling depths
    (4, 8, … , [s.depth]), each with a fresh visited set, sharing one
    wall-clock budget. Stops early at a level that was not truncated
    (the whole tree fits under its depth — deeper levels are identical)
    or that was itself stopped early. The last element is the final
    verdict. *)

(** {1 Replay} *)

val replay :
  ?entry_shim:(Dsim.Trace.entry -> Dsim.Trace.entry list) ->
  ?view_shim:(Gcs.Metrics.view -> Gcs.Metrics.view) ->
  Spec.t ->
  Audit.Report.t * string
(** Re-execute the single branch forced by the spec's choice tape
    (choice points past the tape take option 0) and return its audit
    report and full trace CSV. Deterministic: equal specs yield
    byte-identical CSV and rendered reports. Raises {!Replay_diverged}
    on a tape that does not fit the configuration's choice tree. *)

val samples : Spec.t -> (float * float array * float array) list
(** Replay the spec's branch collecting a [(time, L array, Lmax array)]
    sample at every between-events probe point, chronologically — the
    input to {!Tla.export}. *)

val shrink :
  ?entry_shim:(Dsim.Trace.entry -> Dsim.Trace.entry list) ->
  ?view_shim:(Gcs.Metrics.view -> Gcs.Metrics.view) ->
  Spec.t ->
  Spec.t
(** Greedily minimize a failing spec ({!Audit.Fuzz.greedy}): drop faults
    and churn, halve or trim the choice tape, flatten drift to nominal,
    halve the horizon — keeping each step only if {!replay} still
    reports a violation. Returns the input unchanged if it passes. *)

(** {1 Configuration grids} *)

val roots :
  ?delays:int ->
  ?horizon:float ->
  ?depth:int ->
  ?tie:bool ->
  ?churn:bool ->
  ?fault_grid:bool ->
  ?alphabet:string ->
  n:int ->
  unit ->
  Spec.t list
(** The root specs [gcs_sim mcheck] sweeps: every drift assignment over
    [alphabet] (default ["sf"], so [2^n] assignments), optionally crossed
    with a small fault grid ([fault_grid], default off: no-faults plus a
    crash of node [n-1] at [t=1] with restart at [t=2]). *)
