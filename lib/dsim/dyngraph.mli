(** The dynamic edge set of an execution.

    Tracks which undirected edges currently exist, when each last changed,
    and an epoch counter per edge that increments on every add or remove.
    Epochs let the engine invalidate in-flight messages and stale discovery
    notifications when the edge they refer to has since changed
    (Section 3.2's transient-change semantics). *)

type t

val create : n:int -> t
(** Graph over the fixed node set [0 .. n-1], with no edges. Storage is
    edge-sparse: O(n + edges ever touched), never O(n²). *)

val n : t -> int

val normalize : int -> int -> int * int
(** Order an edge's endpoints as [(min, max)]. *)

val compare_edge : int * int -> int * int -> int
(** Lexicographic [Int.compare] on the endpoints (the order {!edges}
    returns). *)

val has_edge : t -> int -> int -> bool

val add_edge : t -> now:float -> int -> int -> bool
(** Make the edge present. Returns [false] (and changes nothing) if it was
    already present. *)

val remove_edge : t -> now:float -> int -> int -> bool
(** Make the edge absent. Returns [false] if it was already absent. *)

val epoch : t -> int -> int -> int
(** Number of changes this edge has undergone (0 if never touched). *)

val live_epoch : t -> int -> int -> int
(** The edge's {!epoch} if it is present, else [-1]: {!has_edge} and
    {!epoch} in one adjacency search. *)

val since : t -> int -> int -> float option
(** If present, the real time at which the edge last appeared. *)

val neighbors : t -> int -> int list
(** Current neighbors of a node, in increasing order. *)

val edges : t -> (int * int) list
(** Current edge list, normalized and sorted. *)

val iter_edges : t -> (int -> int -> unit) -> unit
(** [iter_edges g f] calls [f u v] (normalized, [u < v]) for every present
    edge without allocating. Order is unspecified; use {!edges} when a
    sorted list is needed. *)

val fold_edges : t -> ('a -> int -> int -> 'a) -> 'a -> 'a
(** Allocation-free fold over present edges, same visit contract as
    {!iter_edges}. *)

val edge_count : t -> int

val footprint_words : t -> int
(** Words currently allocated across adjacency and edge-pool arrays —
    read by the engine's memory-growth checks. *)
