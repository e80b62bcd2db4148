(** One-line replay specs for the bounded model explorer.

    A spec pins an explored configuration — node count, delay grid,
    per-node drift rates, horizon, branching depth, the enumerated
    adversary dimensions — plus the {e choice tape}: the option index the
    adversary took at each choice point of one branch. Re-executing the
    spec replays that branch byte-identically (the engine's (time, seq)
    determinism contract, DESIGN §9/§13), which is how counterexamples
    found by {!Explorer.explore} become one-command repros. *)

type t = {
  n : int;  (** nodes; the topology is the complete graph on them *)
  delays : int;
      (** delay grid size [k >= 1]: each in-flight message picks its
          delay from [{i·T/(k-1) | 0 <= i < k}] ([{T}] when [k = 1]);
          [k = 3] gives the issue's [{0, T/2, T}] *)
  drift : string;
      (** one rate letter per node: ['s']low [(1-ρ)], ['n']ominal [1],
          ['f']ast [(1+ρ)] — constant-rate clocks on the drift grid *)
  horizon : float;  (** run end (real time) *)
  depth : int;
      (** branching depth: choice points beyond this many take option 0
          (the canonical completion) and are never branched on *)
  tie : bool;
      (** enumerate same-instant dispatch orders via the engine
          tie-break hook (off: default (time, seq) order) *)
  churn : bool;
      (** flap the edge {0,1}: remove at [t=1], re-add at [t=2] *)
  faults : Dsim.Fault.schedule;  (** discretized fault ops, may be empty *)
  choices : int list;
      (** the choice tape; [[]] explores from the root, non-empty forces
          a prefix (a full tape replays a single branch) *)
}

val make :
  ?delays:int ->
  ?drift:string ->
  ?horizon:float ->
  ?depth:int ->
  ?tie:bool ->
  ?churn:bool ->
  ?faults:Dsim.Fault.schedule ->
  ?choices:int list ->
  n:int ->
  unit ->
  t
(** Defaults: [delays = 3], [drift] alternating ["sfsf…"], [horizon = 4],
    [depth = 12], [tie = true], [churn = false], no faults, empty tape.
    Raises [Invalid_argument] on an inconsistent combination. *)

val validate : t -> (unit, string) result

val to_spec : t -> string
(** One line, e.g.
    [n=2 delays=3 drift=sf horizon=4 depth=12 tie=1 churn=0 choices=0.2.1].
    The fault token is omitted when the schedule is empty; an empty tape
    prints as [choices=-]. Floats print with {!Dsim.Fault.exact_float}. *)

val of_spec : string -> (t, string) result
(** Inverse of {!to_spec}: [of_spec (to_spec s) = Ok s]. Unknown or
    repeated keys are errors ({!Audit.Scenario.Fields.parse}). *)
