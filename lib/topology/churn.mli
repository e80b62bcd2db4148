(** Dynamic-topology schedules: timed sequences of edge insertions and
    removals, with generators that do or do not preserve the paper's
    T-interval connectivity requirement (Definition 3.1). *)

type op = Add | Remove

type event = { time : float; op : op; u : int; v : int }

val normalize : event list -> event list
(** Normalize endpoints and sort chronologically, ties broken
    deterministically. At equal timestamps and endpoints, [Add] sorts —
    and is therefore applied — before [Remove]: an edge that is both
    added and removed at the same instant ends down. [test_churn.ml]
    pins this tie-break. *)

val schedule : ('msg, 'timer) Dsim.Engine.t -> event list -> unit
(** Push every event onto an engine. *)

val final_edges : initial:(int * int) list -> event list -> (int * int) list
(** Edge set after applying all events to the initial set. *)

(** {1 Generators}

    All generators keep a fixed connected backbone (a spanning tree of the
    base graph) untouched, so every instant — hence every interval — is
    connected, unless stated otherwise. *)

val flapping :
  extra:(int * int) list ->
  period:float ->
  up_for:float ->
  horizon:float ->
  event list
(** Each non-backbone edge [e_i] is removed at phase [i]'s offset within
    every [period] and re-added [up_for] later... i.e. each extra edge
    cycles: present for [up_for], absent for [period - up_for], with
    staggered phases. Edges are assumed initially present. *)

val random_churn :
  Dsim.Prng.t ->
  n:int ->
  base:(int * int) list ->
  rate:float ->
  horizon:float ->
  event list
(** Poisson-like churn: every [1/rate] expected time, a uniformly chosen
    non-backbone pair is toggled (added if absent, removed if present).
    The spanning tree of [base] is never touched. *)

val periodic_partition :
  cut:(int * int) list ->
  first_cut_at:float ->
  down_for:float ->
  every:float ->
  horizon:float ->
  event list
(** Removes all [cut] edges simultaneously for [down_for] time, every
    [every], starting at [first_cut_at] — deliberately breaking interval
    connectivity when [cut] is a cut-set and [down_for] exceeds the
    window. *)

val single_new_edge : at:float -> int -> int -> event list
(** The canonical Section 1 scenario: one new edge appears at [at]. *)
