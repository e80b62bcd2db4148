(** Struct-of-arrays event queue for the engine's encoded events.

    Events are flattened to a kind tag, four int operands and one
    optional boxed payload, held in a free-listed slot pool. Ordering is
    by [(time, seq)] across three sources: a binary heap and two sorted
    runs beside it. A push whose [(time, seq)] does not precede a run's
    tail appends to that run in O(1) (the accepting run with the latest
    tail, when both accept); any other push sifts into the heap. Pop
    takes the least of the three heads. Since seqs are unique,
    [(time, seq)] is a strict total order and the queue pops exactly the
    sequence a single heap would. Times live in unboxed columns (an
    off-heap Float64 [Bigarray] for the heap); the steady-state
    push/pop cycle allocates nothing.

    It is the simulator's one [(time, seq)] order structure: the engine's
    event queues are [Equeue]s, and so is each timer wheel's due set,
    whose entries {!top_a} .. {!top_c} read before they are popped.

    Tie-break sequence numbers are supplied by the caller: the engine
    owns one global counter shared by all of its per-shard queues and
    its timer wheels, which is what makes the sharded merge order — and
    therefore the trace — independent of the shard count. *)

type t

val create : ?capacity:int -> unit -> t
(** [create ?capacity ()] sizes the slot pool for [capacity] events
    (default 64) and one sorted run for an in-order stream of as many
    (rounded up to a power of two). The heap starts empty, since
    in-order pushes never reach it; everything grows on demand.

    The [kind], [d] and payload columns are allocated lazily, at pool
    size, by the first push that writes a value other than their
    default (0, 0 and [Obj.repr ()]); while a column is absent,
    {!ev_kind}, {!ev_d} and {!ev_payload} read the default. A queue
    that only pushes defaults there, like a timer wheel's due set, never
    allocates them. Raises [Invalid_argument] on a negative capacity. *)

val push :
  t ->
  time:float ->
  seq:int ->
  kind:int ->
  a:int ->
  b:int ->
  c:int ->
  d:int ->
  Obj.t ->
  unit
(** Insert an encoded event. [time] must be finite; [seq] must be unique
    across every queue sharing the engine's counter. *)

val pop : t -> unit
(** Remove the earliest event; {!ev_kind} .. {!ev_payload} read it until
    the next pop or {!release}, which first frees the previous one.
    Raises [Invalid_argument] when empty. *)

val next_time : t -> float
(** Time of the earliest event, or [infinity] when empty. Inlined across
    modules so the result stays unboxed in the caller. *)

val top_seq : t -> int
(** Sequence of the earliest event, or [max_int] when empty — an
    equal-time comparison against another source then always prefers the
    non-empty side. *)

val top_a : t -> int
val top_b : t -> int

val top_c : t -> int
(** Operands [a], [b] and [c] of the earliest event, read in place
    without popping it. Raise [Invalid_argument] when empty. *)

val ev_kind : t -> int
val ev_a : t -> int
val ev_b : t -> int
val ev_c : t -> int
val ev_d : t -> int

val ev_payload : t -> Obj.t
(** Operands of the last {!pop}ped event, read in place. Its slot, and so
    its payload, stays held until the next pop or {!release}. *)

val release : t -> unit
(** Free the last popped event's slot so the GC can reclaim its payload;
    {!ev_kind} .. {!ev_payload} must not be read again until the next
    pop. *)

val prov_flag : int
(** Seqs at or above this value are provisional per-lane block ranks
    (DESIGN §14); the queue counts them so {!remap_batch} can skip
    queues holding none. *)

val cre_mask : int
(** Mask extracting a provisional seq's creation index — the index into
    the creating lane's final-rank table. *)

val remap_batch : t -> finals:int array -> unit
(** [remap_batch q ~finals] replaces every live provisional seq [s] with
    [finals.(s land cre_mask)] in place and stops as soon as the queue's
    provisional count is exhausted (one load when it is zero). The
    rewrite must preserve the pairwise order of the live seqs — that keeps
    the heap valid and every run sorted — which the engine's barrier
    guarantees: a lane's provisional ranks resolve in
    creation order and every assigned final rank exceeds every rank the
    queue already held (DESIGN §14). *)

val size : t -> int
val is_empty : t -> bool

val footprint_words : t -> int
(** Words currently allocated across the heap, run and pool columns
    that exist (the off-heap time column counted at one word per cell) —
    the engine's memory-growth checks read this. *)
