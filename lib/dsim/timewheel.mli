(** Hierarchical timer wheel for the engine's periodic timer traffic.

    The wheel holds integer-identified timer entries — [(node, label, gen,
    seq)] plus a float deadline — in one pool of dense parallel columns
    with a free list of slots; each bucket is a FIFO list of pool slots.
    Arming is O(1): the entry takes a free slot and is appended to the
    bucket covering its deadline's granule at the right level. Storage
    follows the number of entries held at once, not the largest burst
    any one bucket took. The engine's run loop resolves entries
    lazily: {!peek} advances an internal cursor granule by granule,
    cascading coarser levels down as their boundaries are crossed, and
    moves the current granule's entries, in arm order, into the due set:
    an {!Equeue} holding each entry as a kind-0 event ([a] = node,
    [b] = label, [c] = gen, its deadline as the time), so the wheel holds
    buckets only and the queue's one [(time, seq)] order structure
    decides which entry surfaces first.

    The wheel never decides whether an entry is live: cancellation and
    re-arm are generation-counter checks performed by the engine when an
    entry surfaces (a lazy stale-slot discard), so superseded entries stay
    in their bucket as flat integers until their deadline passes.

    Determinism: entries surface in strictly increasing [(deadline, seq)]
    order, the same total order a single binary heap over all events
    produces, which is what lets the engine interleave wheel timers with
    its event queue in one [(time, seq)] order. After a successful
    [peek ~upto:t], every entry due at [t] sits in the due set. *)

type t

val create : granularity:float -> ?slots:int -> ?levels:int -> unit -> t
(** [create ~granularity ()] builds an empty wheel whose level-0 buckets
    each span [granularity] time units; level [l] buckets span
    [granularity * slots^l]. Defaults: [slots = 64], [levels = 4] (spans
    ~16.7M granules before far-future entries are parked in the top level
    and re-cascaded). Raises [Invalid_argument] unless
    [granularity > 0], [slots >= 2] and [levels >= 1]. *)

val arm : t -> node:int -> label:int -> gen:int -> seq:int -> deadline:float -> unit
(** Add an entry. [deadline] must be finite and non-negative; [seq] must
    be unique among held entries (the engine's shared tie-break counter
    guarantees this). Entries whose granule has already been resolved go
    straight into the due set, whatever their seq — which is how the
    engine's tie-break hook puts a same-instant group back. *)

val size : t -> int
(** Entries currently held, including superseded ones that have not yet
    surfaced. *)

val footprint_words : t -> int
(** Words currently allocated across the bucket table (two ints per
    bucket), the entry pool (six words per slot, free slots included)
    and the due set's {!Equeue.footprint_words} — read by the engine's
    memory-growth checks. The pool at most doubles past the peak number
    of entries held at once. *)

val peek : t -> upto:float -> bool
(** [peek w ~upto] is [true] iff the earliest entry's deadline is
    [<= upto], resolving granules no further than [upto]. When it returns
    [true], {!top_time}, {!top_seq}, {!top_node}, {!top_label} and
    {!top_gen} read that entry. *)

val top_time : t -> float
(** Deadline of the resolved head, or [infinity] when no entry is
    resolved. Inlined across modules so the result stays unboxed in the
    caller. *)

val top_seq : t -> int
(** Sequence of the resolved head, or [max_int] when no entry is
    resolved — an equal-time comparison against another source then
    always prefers the other side. *)

val top_node : t -> int
(** Node of the resolved head. Raises [Invalid_argument] when no entry
    is resolved; likewise {!top_label} and {!top_gen}. *)

val top_label : t -> int

val top_gen : t -> int

val pop : t -> unit
(** Drop the entry exposed by the last successful {!peek}. Raises
    [Invalid_argument] if no resolved entry is pending. *)

val remap_batch : t -> finals:int array -> unit
(** [remap_batch w ~finals] replaces every held provisional seq [s] —
    bucket entries and due entries alike — with
    [finals.(s land Equeue.cre_mask)] in place, stopping as soon as the
    wheel's provisional count (maintained by {!arm}/{!pop}) is
    exhausted; a wheel holding none pays one load. The rewrite must
    preserve the pairwise order of the live seqs, which the engine's
    barrier re-ranking guarantees (see {!Equeue.remap_batch}, which
    rewrites the due set). *)
