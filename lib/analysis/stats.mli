(** Summary statistics over float samples. *)

val mean : float list -> float

val percentile : float -> float list -> float
(** [percentile q xs] for [q] in [\[0, 1\]], linear interpolation between
    order statistics. *)

val minimum : float list -> float

val maximum : float list -> float

val linear_fit : (float * float) list -> float * float
(** Least-squares [(slope, intercept)]. Requires two or more points with
    distinct abscissae. *)

val correlation : (float * float) list -> float
(** Pearson correlation coefficient. *)
