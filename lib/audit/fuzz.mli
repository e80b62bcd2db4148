(** Seeded scenario fuzzer with greedy shrinking.

    [run ~seed ~count] draws [count] scenarios from the seeded space,
    audits each ({!Scenario.run}) and, for every failure, greedily
    shrinks the scenario — drop the fault schedule (then its last op),
    disable churn, halve the horizon, fewer nodes, tamer drift, simpler
    delays, simpler topology — re-running the audit after each candidate
    step and keeping it only if it still fails. Shrinking is
    deterministic: the same failing scenario always converges to the
    same minimal spec. *)

type failure = {
  original : Scenario.t;  (** the scenario as drawn *)
  shrunk : Scenario.t;  (** greedy fixpoint that still fails *)
  report : Report.t;  (** the shrunk scenario's audit report *)
}

type outcome = {
  scenarios_run : int;  (** scenarios drawn and audited (shrink re-runs excluded) *)
  failures : failure list;
}

val greedy : fails:('a -> bool) -> candidates:('a -> 'a list) -> 'a -> 'a
(** The shrinking engine, polymorphic over the spec type: repeatedly
    replace the input with the first candidate that still satisfies
    [fails], restarting from it, until no candidate fails. [candidates]
    must eventually return an empty (or all-passing) list or shrinking
    diverges. Returns the input unchanged if it does not fail. The model
    explorer shrinks its counterexample specs through this with its own
    candidate rules. *)

val shrink_with : fails:(Scenario.t -> bool) -> Scenario.t -> Scenario.t
(** Greedy deterministic minimization against an arbitrary failure
    predicate: repeatedly take the first simplification (drop faults,
    drop churn, halve horizon, fewer nodes, tamer drift, simpler delay,
    path topology) that still satisfies [fails], until none does.
    Shrinking [n] also drops fault ops naming removed nodes, keeping the
    schedule valid. Returns the input unchanged if it does not fail. *)

val shrink : Scenario.t -> Scenario.t
(** [shrink_with] against the real audit verdict ([Scenario.run]). *)

val run : ?jobs:int -> ?faults:bool -> seed:int -> count:int -> unit -> outcome
(** Scenarios are drawn serially from the seeded stream, then audited
    (and any failures shrunk) on {!Runner.map}'s domain pool — [jobs]
    defaults to {!Runner.default_jobs}. With [~faults:true] (default
    false) every drawn scenario carries a generated fault schedule.
    Failures are reported in draw order, so the outcome is
    byte-identical for every [jobs]. Raises [Invalid_argument] on a
    negative [count]. *)

val pp_failure : Format.formatter -> failure -> unit
(** The shrunk replay spec on the first line, then the report. *)
