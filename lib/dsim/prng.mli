(** Deterministic splittable pseudo-random number generator (splitmix64).

    All randomness in the simulator flows through this module so that an
    execution is a pure function of its seed: identical seeds produce
    identical event sequences, which the test suite relies on. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] returns a fresh generator. *)

val of_int : int -> t
(** [of_int seed] is [create (Int64.of_int seed)]. *)

val copy : t -> t
(** Independent copy continuing from the current state. *)

val split : t -> t
(** [split g] advances [g] and returns a new generator whose stream is
    statistically independent of [g]'s subsequent output. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in g lo hi] is uniform in [\[lo, hi\]] (inclusive). *)

val float : t -> float -> float
(** [float g bound] is uniform in [\[0, bound)]. [bound] must be finite
    and non-negative. *)

val float_in : t -> float -> float -> float
(** [float_in g lo hi] is uniform in [\[lo, hi)]. Requires [lo <= hi]. *)

val bool : t -> bool
(** Fair coin. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
