(** The dynamic gradient clock synchronization algorithm (Algorithm 2 of
    the paper), as the event handlers of one node.

    Each node maintains:
    - [Υ] (upsilon): peers it believes it has an edge to (discovered adds
      not yet followed by a discovered remove);
    - [Γ] (gamma) ⊆ Υ: peers heard from within the last subjective [ΔT'];
    - a logical clock [L], an estimate [Lmax] of the maximal logical clock
      in the network, and per-peer estimates [L^v] with the hardware
      timestamp [C^v] of when [v] last (re-)entered Γ.

    After every event, [AdjustClock] raises [L] as far as possible subject
    to [L <= Lmax] and, for every [v ∈ Γ],
    [L - L^v <= B(H - C^v)] where [B] is the per-edge tolerance function
    ({!Params.b}).

    The [tolerance] parameter generalizes [B]: the flat-gradient baseline
    passes a constant function. *)

type t

type tolerance =
  | Tol_default  (** [Params.b params], in its precomputed linear form. *)
  | Tol_const of float  (** A flat tolerance — the non-gradient baseline. *)
  | Tol_fun of (peer:int -> float -> float)
      (** Fully general: receives the peer id and the subjective age
          [H_u - C^v_u] of its Γ-membership. Per-peer values support the
          heterogeneous-link extension ({!Hetero}). *)

type timeout =
  | Timeout_default  (** [Params.delta_t' params]. *)
  | Timeout_fun of (peer:int -> float)

val create : ?tolerance:tolerance -> ?timeout:timeout -> Params.t -> Proto.ctx -> t
(** [tolerance] is the per-edge [B]; [timeout] the subjective silence
    after which a peer leaves Γ. The defaults realize Algorithm 2 as
    written. The variants exist for the hot path: [Tol_default] and
    [Tol_const] run AdjustClock's Γ loop on unboxed floats, whereas a
    closure-valued [B] boxes its argument and result on every call. *)

val handlers : t -> Proto.handlers
(** The Algorithm 2 event handlers, to be installed in the engine. Also
    registers {!restart} as the node's {!Dsim.Engine.on_restart} entry
    point. *)

val restart : t -> corrupt:Dsim.Prng.t option -> unit
(** Fault-injection restart entry point: drop every peer slot (Γ, Υ,
    estimates, membership timestamps), reset [L] and [Lmax], and re-arm
    the periodic tick. With [corrupt = Some prng], [L] and [Lmax] restart
    from arbitrary PRNG-drawn values (kept ordered [L <= Lmax]) instead
    of zero — the self-stabilization starting point. *)

(** {1 Introspection (harness side; reads the node's current state)} *)

val params_of : t -> Params.t

val logical_clock : t -> float
(** [L_u] at the engine's current instant. *)

val max_estimate : t -> float
(** [Lmax_u] at the engine's current instant. *)

val gamma : t -> int list
(** Current members of Γ, sorted. *)

val upsilon : t -> int list
(** Current members of Υ, sorted. *)

val peer_estimate : t -> int -> float option
(** [L^v_u] if [v ∈ Γ]. *)

val peer_tolerance : t -> int -> float option
(** Current [B^v_u = B(H_u - C^v_u)] if [v ∈ Γ]. *)

val peer_age : t -> int -> float option
(** Subjective age [H_u - C^v_u] of [v]'s Γ-membership. *)

val is_blocked : t -> bool
(** Definition 6.1: [Lmax_u > L_u] and some [v ∈ Γ] has
    [L_u - L^v_u > B^v_u]. By Property 6.4 the first condition alone is
    equivalent; we check both and the pair is asserted consistent in
    tests. *)

val discrete_jumps : t -> int
(** Number of strictly positive discrete adjustments made so far. *)

val messages_sent : t -> int
