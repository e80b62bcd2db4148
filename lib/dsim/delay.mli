(** Message delay policies.

    The network model (Section 3.2) guarantees delivery within [T] real
    time on a surviving edge but leaves the specific delay to an adversary.
    A policy chooses the delay of each message at send time; the engine
    additionally enforces FIFO order per directed link. *)

type t = {
  bound : float;
  (** The model's [T]: no drawn delay may exceed it. *)
  draw : src:int -> dst:int -> now:float -> float;
  (** Delay for a message sent from [src] to [dst] at real time [now].
      Must lie in [\[0, bound\]]. *)
  drop : src:int -> dst:int -> now:float -> bool;
  (** Silent per-message loss. The paper's model assumes reliable links
      ([drop] is constantly [false] for every constructor here); {!lossy}
      wraps a policy to study robustness when that assumption breaks.
      Unlike an edge removal, a silent drop triggers no discovery — the
      receiver only notices through the [lost(v)] timeout. *)
  const : float;
  (** Fast path for fixed-delay policies: when non-negative, every call
      to [draw] would return exactly this value (already in
      [\[0, bound\]]), and the engine skips the closure call — a generic
      closure-field call boxes its float result, which is measurable on
      the per-send hot path. Negative for genuinely drawing policies. *)
  may_drop : bool;
  (** [false] guarantees [drop] is constantly [false], letting the engine
      skip the call entirely. Only {!lossy} sets it. *)
  pure : bool;
  (** [true] promises [draw] is a pure function of [(src, dst, now)]:
      no shared PRNG stream or other mutable state, so concurrent calls
      from several domains are safe and produce the same values in any
      order. The engine only runs shards on multiple domains (DESIGN §14)
      under a pure policy — an impure one falls back to the sequential
      dispatch loop, which is always correct. *)
  min_lat : float;
  (** Conservative lower bound on every value [draw] can return. This is the engine's lookahead: a
      parallel dispatch window spans [min_lat] of simulated time, because
      any message sent inside the window lands at or beyond its end.
      [0.] is always sound and simply disables parallel windows. *)
}

val constant : bound:float -> float -> t
(** Every message takes exactly the given delay. Pure, with
    [min_lat] equal to the delay. *)

val zero : bound:float -> t
(** Instantaneous delivery (still ordered after the sending event). *)

val maximal : bound:float -> t
(** Every message takes the full [bound] — the classic worst case.
    Pure with [min_lat = bound], so it admits maximal parallel windows. *)

val uniform : Prng.t -> bound:float -> t
(** Delay uniform in [\[0, bound\]]. Impure: draws mutate the shared
    [prng] stream in engine event order. *)

val uniform_keyed : seed:int -> ?lo:float -> bound:float -> unit -> t
(** [uniform_keyed ~seed ~lo ~bound ()] draws a delay uniform in
    [\[lo, bound\]] as a stateless splitmix-style hash of
    [(seed, src, dst, now)] — the same message always gets the same
    delay, with no PRNG stream to advance. Pure with [min_lat = lo]:
    the parallel-window-friendly replacement for {!uniform} (pass
    [lo > 0] to obtain positive lookahead). [lo] defaults to [0.]. *)

val directed :
  ?pure:bool ->
  ?min_lat:float ->
  bound:float ->
  (src:int -> dst:int -> now:float -> float) ->
  t
(** Fully custom policy; used by the lower-bound adversary. Drawn values
    are clamped to [\[0, bound\]] by the engine (NaN to [0]), which records a
    {!Trace.kind.Delay_clamped} warning for each clamp — an out-of-range
    draw almost always means the policy is broken, and silently narrowing
    it would skew any coverage argument built on top of it.
    [pure]/[min_lat] (defaults [false]/[0.]) are promises about [f] the
    caller takes responsibility for; see the field docs. *)

val describe : t -> string
(** One-line human description of a policy's engine-relevant shape —
    constant value, or purity/lossiness plus bound and minimum latency.
    A sharded [gcs_sim sim] run prints it when explaining why it did not
    take the parallel dispatch path. *)

val lossy : Prng.t -> rate:float -> t -> t
(** [lossy prng ~rate policy] drops each message independently with the
    given probability (in [\[0, 1)]) and otherwise behaves like [policy].
    Deliberately outside the paper's model — see experiment A6. Impure
    (the drop draw advances a shared stream). *)
