(** Gradient clock synchronization in dynamic networks — the algorithm,
    baselines, analysis-side bounds and measurement tools of Kuhn, Locher
    & Oshman (SPAA 2009).

    Start with {!Params} (every derived bound of Sections 5-6), then
    {!Sim} to assemble and run a network. {!Node} is Algorithm 2 itself;
    {!Metrics} and {!Invariant} measure executions; {!Hetero} and
    {!Weights} implement the Section 7 extensions. *)

module Params = Params
(** Model/algorithm parameters and every derived quantity: ΔT, τ, G(n),
    W, B(Δt), the dynamic local skew envelope, stabilization times. *)

module Proto = Proto
(** The wire protocol: update messages [⟨L, Lmax⟩] and timer labels. *)

module Node = Node
(** Algorithm 2: the dynamic gradient clock synchronization node. *)

module Baseline_max = Baseline_max
(** Max-propagation baseline (the Section 1 strawman). *)

module Drift = Drift
(** Whole-network hardware-clock assignments (drift patterns). *)

module Metrics = Metrics
(** The probe schedule, its per-instant snapshot, skew reductions and
    recorders. *)

module Invariant = Invariant
(** Validity monitors: monotone clocks, rate >= 1 - rho, L <= Lmax. *)

module Sim = Sim
(** One-call simulation assembly over any of the four algorithms. *)

module Hetero = Hetero
(** Section 7 extension: per-link delay bounds with scaled tolerances. *)

module Weights = Weights
(** Section 7 extension: the weighted-graph view and effective
    diameter. *)
