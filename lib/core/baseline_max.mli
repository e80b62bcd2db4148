(** Max-propagation baseline DCSA (the classic [18]-style algorithm the
    paper's introduction argues against for local skew).

    Every node floods [⟨L, Lmax⟩] updates exactly like Algorithm 2, but its
    logical clock simply chases the max estimate: [AdjustClock] sets
    [L <- Lmax] unconditionally. Global skew is the same [G(n)] (the
    analysis of Section 6.2 does not use the tolerance function), but a
    node whose [Lmax] jumps — e.g. when a new edge delivers a far-away
    max — yanks its logical clock by Θ(n) in one step, creating Θ(n) local
    skew with all of its old neighbours. *)

type t

val create : Params.t -> Proto.ctx -> t

val handlers : t -> Proto.handlers
(** Also registers the node's fault-injection restart entry point, which
    forgets the neighbor set, resets (or, with [Some prng], corrupts)
    [L]/[Lmax] and re-arms the tick. *)

val logical_clock : t -> float

val max_estimate : t -> float

val upsilon : t -> int list

val discrete_jumps : t -> int

val messages_sent : t -> int
