(** Online monitor for the paper's quantitative guarantees, sampled
    periodically while the execution runs (the envelope check needs live
    edge ages, which the trace does not carry).

    Checked at every probe:

    - {b global skew} ≤ [G(n)] (Theorem 6.9); requires the scenario to
      preserve interval connectivity, which the fuzzer's topologies and
      backbone-preserving churn guarantee;
    - {b max-estimate propagation} (Lemma 6.8): the worst-informed
      node's [Lmax] trails the best by at most [(1+ρ)(n-1)ΔT] — the
      true max grows at rate ≤ [1+ρ] while propagating one hop per
      [ΔT];
    - {b dynamic local-skew envelope} (Corollary 6.13, optional): every
      present edge of real age [Δt] carries skew ≤ [s(n, Δt)]
      ([Params.dynamic_local_skew]). Only the full gradient algorithm
      guarantees this; disable for the flat and max-only baselines.

    Under a fault schedule the guarantees cannot hold while faults are
    active, so every check is suspended from the first fault until
    [recovery_bound] after the last. Once the window closes the probe
    demands self-stabilization instead: crashed nodes are skipped, and a
    global skew still above [G(n)] is reported under the rule
    ["recovery-exceeded"]. *)

type t

val lmax_lag :
  Gcs.Params.t ->
  Gcs.Metrics.snapshot ->
  alive:(int -> bool) ->
  Report.violation option
(** The Lemma 6.8 rule, the one both this probe and the model explorer
    run: the spread of [Lmax] over the nodes [alive] accepts must stay
    within [(1+ρ)(n-1)ΔT]. [Some] carries the ["lmax-propagation"]
    violation stamped with the snapshot's time. Applied to [params], it
    computes the bound once; a call that finds the rule holding
    allocates nothing. *)

val create :
  (Gcs.Proto.message, Gcs.Proto.timer) Dsim.Engine.t ->
  params:Gcs.Params.t ->
  check_envelope:bool ->
  faults:Dsim.Fault.schedule ->
  t
(** A monitor for a {!Gcs.Metrics.every} observer to feed, with
    {!attach}'s default recovery bound; the engine gives edge ages. *)

val observe : t -> Gcs.Metrics.snapshot -> unit
(** Check one probe instant. *)

val attach :
  (Gcs.Proto.message, Gcs.Proto.timer) Dsim.Engine.t ->
  Gcs.Metrics.view ->
  params:Gcs.Params.t ->
  ?check_envelope:bool ->
  ?faults:Dsim.Fault.schedule ->
  ?recovery_bound:float ->
  every:float ->
  until:float ->
  unit ->
  t
(** {!create} on a schedule of its own. [check_envelope] defaults to
    [false]. [recovery_bound] defaults to [(n-1)ΔT + stabilize_real] —
    max-propagation across the network plus the paper's convergence
    horizon — plus the time to burn off any Lmax-inflating fault. *)

val report : t -> Report.t
