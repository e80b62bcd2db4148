(** Drifting hardware clocks as exact piecewise-linear functions of real
    time.

    A clock is defined by a rate schedule: a sequence of segments, each with
    a constant rate in [\[1-rho, 1+rho\]]. The paper (Section 3.3) requires
    [H(0) = 0] and a rate bounded by the drift [rho] at all times; both are
    enforced here. Because rates are strictly positive, the clock is
    invertible, which the engine uses to fire subjective-time timers at the
    correct real times. *)

type t

val of_rates : (float * float) list -> t
(** [of_rates [(t0, r0); (t1, r1); ...]] builds a clock that runs at rate
    [r0] on [\[t0, t1)], [r1] on [\[t1, t2)], ..., with the last rate
    extending forever. Requires [t0 = 0], strictly increasing times and
    strictly positive rates. [H(0) = 0]. *)

val constant : float -> t
(** Clock running forever at the given rate. *)

val perfect : t
(** [constant 1.0]. *)

val value : t -> float -> float
(** [value c t] is [H(t)], for [t >= 0]. *)

val inverse : t -> float -> float
(** [inverse c h] is the unique [t >= 0] with [H(t) = h], for [h >= 0]. *)

val rate_at : t -> float -> float
(** Rate in effect at time [t] (right-continuous). *)

val segments : t -> (float * float) list
(** The defining [(start_time, rate)] schedule. *)

val within_drift : rho:float -> t -> bool
(** Do all rates lie in [\[1-rho, 1+rho\]]? *)

(** {1 Drift pattern generators}

    All generated clocks satisfy [within_drift ~rho]. *)

val fastest : rho:float -> t
(** Rate [1+rho] forever. *)

val slowest : rho:float -> t
(** Rate [1-rho] forever. *)

val two_rate : rho:float -> period:float -> horizon:float -> fast_first:bool -> t
(** Alternates between [1+rho] and [1-rho] every [period] until [horizon],
    then runs at rate 1. An adversarial pattern that maximizes relative
    drift between out-of-phase nodes. *)

val random_walk :
  Prng.t -> rho:float -> segment_mean:float -> horizon:float -> t
(** Rate re-drawn uniformly from [\[1-rho, 1+rho\]] at exponentially
    distributed intervals with the given mean, until [horizon]. *)

val fast_until : rho:float -> float -> t
(** Rate [1+rho] until the given time, then rate 1. Used to realize the
    layered execution [beta] of the Masking Lemma (Lemma 4.2), where node
    [x] runs fast exactly until [H(t) = t + T.dist] is reached. *)
