(** Operations on chronological [(time, value)] traces. *)

type t = (float * float) list
(** Must be sorted by time (the producers in this repo guarantee it). *)

val after : float -> t -> t
(** Points with [time >= t]. *)

val between : float -> float -> t -> t
(** Points with [t1 <= time <= t2]. *)

val max_value : t -> float
(** Maximum value ([neg_infinity] on empty). *)

val min_value : t -> float

val value_at : t -> float -> float option
(** Value of the latest point at or before the given time. *)

val first_below : float -> t -> float option
(** Time of the first point at or below the threshold. *)
