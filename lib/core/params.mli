(** Algorithm and model parameters, with every derived quantity of
    Sections 5-6 of the paper.

    Notation mapping (paper -> here):
    - [rho]: maximum hardware clock drift,
    - [T -> delay_bound]: maximum message delay,
    - [D -> discovery_bound]: maximum time to discover a topology change,
    - [ΔH -> delta_h]: subjective time between update broadcasts,
    - [B0 -> b0]: target stable local skew parameter. *)

type t = private {
  n : int;  (** number of nodes (known to all nodes, Section 5) *)
  rho : float;
  delay_bound : float;
  discovery_bound : float;
  delta_h : float;
  b0 : float;
}

val make :
  ?rho:float ->
  ?delay_bound:float ->
  ?discovery_bound:float ->
  ?delta_h:float ->
  ?b0:float ->
  n:int ->
  unit ->
  t
(** Build a parameter set, raising [Invalid_argument] if the paper's
    well-formedness constraints are violated:
    [0 < rho <= 1/2] (so logical clocks run at rate >= 1/2),
    [delay_bound > 0], [delta_h > 0],
    [discovery_bound > max(delay_bound, delta_h /. (1 -. rho))]
    (Section 3.2/5), and a finite [b0 > 2 (1+rho) tau] (Section 5).

    Defaults: [rho = 0.05], [delay_bound = 1.0], [delta_h = 1.0],
    [discovery_bound] just above its lower bound, and [b0] = 2.5x its
    lower bound. *)

val validate : t -> (unit, string) result

(** {1 Derived quantities} *)

val delta_t : t -> float
(** [ΔT = T + ΔH/(1-rho)]: the longest real time between receipts of two
    messages on a live edge. *)

val delta_t' : t -> float
(** [ΔT' = (1+rho) ΔT]: the subjective timeout after which a silent
    neighbour is dropped from Γ. *)

val tau : t -> float
(** [τ = (1+rho)/(1-rho) ΔT + T + D]: the staleness bound of neighbour
    estimates (Property 6.1). *)

val min_b0 : t -> float
(** [2 (1+rho) τ], the paper's lower bound on admissible [b0]. *)

val global_skew_bound : t -> float
(** [G(n) = ((1+rho) T + 2 rho D)(n-1)] (Theorem 6.9). *)

val w : t -> float
(** [W = (4 G(n)/B0 + 1) τ] (Lemma 6.10): how long an edge must have been
    in Γ before its constraint can block a node. *)

val b : t -> float -> float
(** [b p dt] is the tolerance function
    [B(Δt) = max{B0, 5G(n) + (1+rho)τ + B0 - B0 Δt/((1+rho)τ)}] of a
    subjective edge age [Δt] (Section 5). Non-increasing; equals [B0] for
    [Δt >= stabilize_subjective p]. *)

val stabilize_subjective : t -> float
(** Subjective edge age at which [b] first reaches [b0]:
    [(5G(n) + (1+rho)τ) (1+rho)τ / B0]. Θ(n/B0) — the trade-off of
    Corollary 6.14. *)

val stabilize_real : t -> float
(** Real edge age after which the dynamic local skew (Corollary 6.13) has
    converged to its stable value:
    [stabilize_subjective /. (1-rho) + ΔT + D + W]. *)

val dynamic_local_skew : t -> float -> float
(** [dynamic_local_skew p dt] is Corollary 6.13's skew function
    [s(n, Δt) = B(max{(1-rho)(Δt - ΔT - D - W), 0}) + 2 rho W] —
    the guaranteed bound on the skew of an edge that has existed for [dt]
    real time, regardless of its initial skew. *)

val stable_local_skew : t -> float
(** [lim_{dt -> ∞} dynamic_local_skew p dt = B0 + 2 rho W]. *)

val pp : Format.formatter -> t -> unit
(** Print the parameter set and all derived quantities. *)
