(** Heterogeneous link delays — the weighted-graph extension sketched in
    Section 7 and developed in the companion paper (Kuhn & Oshman,
    "Gradient clock synchronization using reference broadcasts", reference
    [9]).

    Each link [e = {u, v}] has its own delay bound [T_e <= T] (its
    {e uncertainty}); the global parameters still use the worst-case [T],
    but a node scales its per-peer staleness bound, timeout and tolerance
    to the link:

    - [ΔT_e = T_e + ΔH/(1-rho)] and [ΔT'_e = (1+rho) ΔT_e];
    - [τ_e = (1+rho)/(1-rho) ΔT_e + T_e + D];
    - [B0_e = B0 · τ_e / τ] (so the admissibility ratio
      [B0_e / ((1+rho) τ_e) = B0 / ((1+rho) τ) > 2] is preserved on every
      link);
    - [B_e(Δt) = max{B0_e, 5 G(n) + (1+rho) τ_e + B0_e - B0_e·Δt/((1+rho) τ_e)}].

    Tight links therefore converge to a proportionally tighter stable
    skew — the per-edge weight is the link's uncertainty, which is the
    gradient property refined from hop distance to weighted distance.

    A weighted run is an ordinary {!Sim} run:
    [Sim.config ~algo:(Sim.Weighted link_bound)
      ~delay:(delay_policy prng params ~link_bound) ...]. *)

type link_bound = int -> int -> float
(** [bound u v] is [T_e] for the (normalized) link; must lie in
    [(0, params.delay_bound]]. Must be symmetric. *)

val uniform_bounds : Params.t -> link_bound
(** Every link at the global bound — degenerates to the plain algorithm. *)

val of_alist : default:float -> ((int * int) * float) list -> link_bound

(** {1 Per-link derived quantities} *)

val delta_t_e : Params.t -> t_e:float -> float

val timeout_e : Params.t -> t_e:float -> float
(** [ΔT'_e], the subjective silence tolerated before dropping the peer. *)

val tau_e : Params.t -> t_e:float -> float

val b0_e : Params.t -> t_e:float -> float

val b_e : Params.t -> t_e:float -> float -> float
(** [b_e params ~t_e age] — the per-link tolerance function. *)

val stable_local_skew_e : Params.t -> t_e:float -> float
(** [B0_e + 2 rho W] — what the link converges to. *)

(** {1 Node and delay policy} *)

val node : Params.t -> link_bound:link_bound -> Proto.ctx -> Node.t
(** Algorithm 2 with per-peer tolerance [B_e] and timeout [ΔT'_e]: what
    {!Sim} installs on every node for [Sim.Weighted link_bound]. *)

val delay_policy :
  Dsim.Prng.t -> Params.t -> link_bound:link_bound -> Dsim.Delay.t
(** Message delays uniform in [\[0, T_e\]] per link (global bound [T]). *)
