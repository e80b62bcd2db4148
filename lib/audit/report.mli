(** Audit verdicts: a flat list of rule violations plus coverage
    counters, with a deterministic rendering so that replaying a stored
    scenario spec can be checked for byte-identical output. *)

type violation = { time : float; rule : string; detail : string }
(** [rule] is a stable kebab-case identifier (e.g. ["delay-exceeds-T"],
    ["late-discovery"], ["global-skew-bound"]). *)

type t = {
  violations : violation list;  (** chronological *)
  events_audited : int;  (** trace entries replayed by the conformance pass *)
  probes : int;  (** guarantee-monitor samples taken *)
}

val ok : t -> bool

val merge : t -> t -> t
(** Union of violations (re-sorted by time, stable on ties) and summed
    counters. *)

val of_validity : Gcs.Invariant.checker -> t
(** The validity checker's violations as a report: rule
    ["validity-" ^ kind], detail ["node N: ..."], with its probe count. *)

val pp_violation : Format.formatter -> violation -> unit

val pp : Format.formatter -> t -> unit

val render : t -> string
(** Canonical text form: one line per violation plus a trailing summary
    line. Identical executions render identically. *)
