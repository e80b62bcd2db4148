(** Deterministic multicore fan-out over a fixed-size domain pool.

    The simulator's three embarrassingly parallel workloads — the
    experiment registry, the audit fuzzer's seed sweep, and grid-style
    parameter sweeps inside individual experiments — are independently
    seeded: no run reads another run's state. {!map} exploits that on an
    OCaml 5 runtime by distributing items over worker domains while
    keeping the results indistinguishable from the serial path.

    {2 Determinism contract}

    - {b Order-preserving merge.} Results come back in submission order,
      whatever order the workers finished in. [map ~jobs f items] equals
      [List.map f items] element for element, so any output derived from
      it (reports, tables, CSV) is byte-identical for every [jobs].
    - {b No shared mutable state.} The pool hands each worker its item;
      workers may not touch anything else that is mutable. All code run
      under the pool must be domain-safe, which every experiment and
      scenario audit in this repository is (each builds its own engine,
      trace and tables).

    Exceptions raised by [f] are caught per item; the pool always drains
    the queue and joins every domain, then re-raises the exception of the
    smallest failing item index (again independent of scheduling).

    {2 Oversubscription cap}

    Fan-out points nest: an experiment mapped over the pool may itself
    call {!sweep}, and a simulation may open a {!scoped} dispatch pool
    while a fuzz [map] is in flight. Each call sizes itself independently,
    so without a brake the process could hold far more live domains than
    [default_jobs] (the ambient budget, [GCS_JOBS] / [--jobs]). Every
    pool therefore claims only what is left of the budget:
    [min requested (max 1 (default_jobs () - live_domains ()))]. A
    fan-out issued when the budget is exhausted runs serially in its
    caller — same results, by the determinism contract. *)

val default_jobs : unit -> int
(** Ambient pool size used when [?jobs] is omitted. Initially the value
    of the [GCS_JOBS] environment variable if it parses as a positive
    integer, otherwise [Domain.recommended_domain_count ()]. *)

val set_default_jobs : int -> unit
(** Override the ambient pool size ([gcs_sim]'s [--jobs] does this).
    Raises [Invalid_argument] if the value is not positive. *)

val live_domains : unit -> int
(** Number of worker domains currently spawned and not yet joined, over
    all pools. Always [0] outside {!map} calls and {!scoped} blocks —
    including after a call that re-raised a worker exception; the test
    suite asserts this. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f items] applies [f] to every item on a pool of [jobs]
    worker domains and returns the results in submission order. With
    [jobs = 1] (or fewer items than that) no domain is spawned and the
    call is exactly [List.map f items]. [jobs] defaults to
    {!default_jobs}. Raises [Invalid_argument] on [jobs < 1]. *)

val sweep : ?jobs:int -> ('a -> 'b) -> 'a list -> ('a * 'b) list
(** [sweep ~jobs f points] runs [f] on every grid point in parallel and
    pairs each point with its result, in submission order — the shape
    wanted by parameter sweeps that tabulate [point -> measurement]
    rows (E3's B0/n sweeps, A7's optimal-B0 grids). *)

(** {2 Scoped barrier-synchronized pool}

    {!map} spawns and joins its domains per call, which is right for
    coarse items (whole experiments, whole audited scenarios) but far too
    heavy for the engine's parallel dispatch windows: one [run_until]
    fires many thousands of tiny rounds, each of which must fully
    complete before the next (an outbox merge barrier, DESIGN §14).
    [scoped] keeps [jobs - 1] worker domains parked on a condition
    variable for the duration of a block, and each {!run} is one
    barrier-synchronized round over them plus the calling domain. *)

type pool
(** A scoped pool. Valid only inside the [scoped] block that created it. *)

val scoped : ?jobs:int -> (pool -> 'a) -> 'a
(** [scoped ~jobs f] spawns [jobs - 1] worker domains (after the
    oversubscription cap above; [jobs] defaults to {!default_jobs}),
    runs [f pool], and always tears the workers down — also on
    exceptions. With an exhausted budget (or [jobs = 1]) no domain is
    spawned and every {!run} executes in the caller. *)

val pool_size : pool -> int
(** Domains a {!run} round executes on: the pool's parked workers plus
    the calling domain. This is what the oversubscription cap actually
    granted, not what [scoped] was asked for — [1] means every round
    runs serially in the caller. Callers sizing work per domain (the
    engine's per-shard dispatch thunks) should read this, not [jobs]. *)

val run : pool -> (unit -> unit) array -> unit
(** [run pool thunks] executes every thunk exactly once on the pool's
    domains plus the calling domain, and returns only when all have
    completed — a barrier. Thunks are claimed dynamically in index
    order; with no spawned workers they run in the caller, in index
    order. Thunks must be domain-safe and must not call [run] on the
    same pool. Exceptions are collected and the smallest thunk index's
    exception is re-raised after the round completes. Calling [run]
    outside the pool's [scoped] block raises [Invalid_argument]. *)
