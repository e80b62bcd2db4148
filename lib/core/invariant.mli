(** Runtime validity monitors for the logical-clock requirements of
    Section 3.3 and Property 6.3.

    Between consecutive probes at times [t1 < t2] every node must satisfy:
    - monotonicity / minimum rate: [L(t2) - L(t1) >= rate_floor (t2 - t1)].
      Logical clocks advance at the hardware rate, never slower, so the
      algorithm guarantees a floor of [1 - rho]; that is the default,
      derived from [Params]. (The paper's validity condition only asks
      for [1/2] — pass [~rate_floor:0.5] to check the weaker bound.)
    - maximum estimate dominance: [Lmax(t) >= L(t)].

    Comparison slack is relative to the magnitudes involved (clock value
    and probe gap), so long horizons neither mask real deficits nor turn
    float accumulation into spurious violations. *)

type violation = { time : float; node : int; kind : string; detail : string }

type checker
(** The engine-independent core: a sequence of probe observations checked
    against the rules above. {!attach} drives one from engine callbacks;
    the bounded model explorer drives one directly at its choice points.
    Both paths run the identical rule code. *)

type monitor = checker

val checker :
  n:int ->
  params:Params.t ->
  ?rate_floor:float ->
  ?faults:Dsim.Fault.schedule ->
  unit ->
  checker
(** A fresh checker over [n] nodes. [rate_floor] defaults to
    [1 - params.rho]; [faults] (default none) must match the schedule the
    observed execution runs under. *)

val observe : checker -> Metrics.snapshot -> unit
(** Check one probe's columns for every node alive at its time.
    Observation times must be non-decreasing. *)

val attach :
  (Proto.message, Proto.timer) Dsim.Engine.t ->
  Metrics.view ->
  params:Params.t ->
  every:float ->
  until:float ->
  ?rate_floor:float ->
  ?faults:Dsim.Fault.schedule ->
  unit ->
  monitor
(** {!checker} on a schedule ({!Metrics.every}) of its own. With
    [faults], crashed nodes are skipped and the min-rate window is
    suspended across any crash or restart discontinuity (state loss /
    corruption legitimately moves [L] backwards). *)

val violations : monitor -> violation list

val ok : monitor -> bool

val probes : monitor -> int

val pp_violation : Format.formatter -> violation -> unit
