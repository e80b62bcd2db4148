(** Skew measurement. A {!view} abstracts over which algorithm is
    running: each node's logical clock and max-estimate plus the live edge
    set. {!every} is the one probe schedule: each instant reads every node
    through the view once, into a {!snapshot}, and every reduction and
    monitor works on its columns. A recorder keeps the reductions as
    samples. *)

type view = {
  n : int;
  clock_of : int -> float;      (** logical clock [L_u] now *)
  lmax_of : int -> float;       (** max estimate [Lmax_u] now *)
  iter_edges : (int -> int -> unit) -> unit;
      (** iterate over edges present now, without allocating *)
}

val slack : float -> float
(** [slack m] is the float tolerance for a comparison at magnitude [m]:
    [1e-9 + 1e-7 |m|]. The probe schedule and every probe and audit rule
    compare with it, so long horizons neither mask real deficits nor
    turn float accumulation into spurious violations. *)

type snapshot = private {
  mutable time : float;  (** the probe instant *)
  l : Float.Array.t;  (** [L_u] at [time] *)
  lmax : Float.Array.t;  (** [Lmax_u] at [time] *)
  iter_edges : (int -> int -> unit) -> unit;  (** the view's edges *)
}

val snapshot : view -> time:float -> snapshot
(** Read every node of the view once, into fresh columns. *)

val fill : view -> snapshot -> time:float -> unit
(** Re-read the view into a snapshot of it, in place. *)

val every :
  (Proto.message, Proto.timer) Dsim.Engine.t ->
  view ->
  every:float ->
  until:float ->
  (snapshot -> unit) ->
  unit
(** Probe from the engine's current time to a finite [until]: each
    instant, one engine callback fills one reused snapshot for the
    observer. The instants are [start + k every], the last one [until]
    itself when [until - start] is a multiple of [every] up to
    {!slack}. *)

val spread : (int -> bool) -> Float.Array.t -> float
(** [max - min] of a column over the nodes the predicate accepts. *)

val global_skew : snapshot -> float
(** [max_u L_u - min_u L_u] (Definition 3.2 over all pairs). *)

val local_skew : snapshot -> float
(** Maximum [|L_u - L_v|] over currently present edges (0 if none). *)

val edge_skew : snapshot -> int -> int -> float
(** [|L_u - L_v|] for the given pair (present or not). *)

val lmax_lag : snapshot -> float
(** [max_u (max_v Lmax_v - Lmax_u)]: how far the worst-informed node's max
    estimate trails the best (Lemma 6.8's quantity). *)

val clock_lag : snapshot -> float
(** [max_u (Lmax_u - L_u)]: how far any node trails its own max estimate;
    spikes while nodes are blocked. *)

type sample = {
  time : float;
  global_skew : float;
  local_skew : float;
  lmax_lag : float;
  clock_lag : float;
  events : int;  (** engine events processed up to this sample *)
}

type recorder

val recorder :
  (Proto.message, Proto.timer) Dsim.Engine.t -> watch:(int * int) list -> recorder
(** [watch] lists node pairs whose skew is traced at every sample
    (whether or not an edge is present). *)

val record : recorder -> snapshot -> unit

val attach :
  (Proto.message, Proto.timer) Dsim.Engine.t ->
  view ->
  every:float ->
  until:float ->
  ?watch:(int * int) list ->
  unit ->
  recorder
(** {!recorder} on a schedule ({!every}) of its own. *)

val samples : recorder -> sample list
(** Chronological samples taken so far. *)

val pair_trace : recorder -> int * int -> (float * float) list
(** Chronological [(time, skew)] trace of a watched pair. *)

val max_global_skew : recorder -> float

val max_local_skew : recorder -> float

val recovery_time : after:float -> bound:float -> sample list -> float option
(** [recovery_time ~after ~bound samples] is the self-stabilization
    metric: the earliest sampled time [t >= after] such that every sample
    from [t] onward has [global_skew <= bound], reported as [t -. after].
    [None] if the run never (re-)enters the envelope for good, or has no
    samples at or after [after]. [samples] must be chronological (as
    returned by {!samples}). *)
