(** The fuzzer's scenario space — a seeded point in
    topology × drift × delay × churn × algorithm, serializable to a
    one-line replay spec.

    The space holds small connected topologies, every drift pattern,
    every lossless delay policy, all three algorithms and optional
    backbone-preserving churn; the fuzzer and the random-scenario
    property test both draw from it. A spec string like

    {[ n=8 topo=ring drift=split delay=uniform algo=gradient churn=1 seed=42 horizon=120 ]}

    round-trips through {!to_spec} / {!of_spec}, so a failing scenario
    can be stored in a test or CI artifact and replayed byte-identically
    (executions are deterministic given the spec). *)

type t = {
  n : int;  (** 2 .. *)
  topo : int;  (** 0 path, 1 ring, 2 binary tree, 3 Erdős–Rényi *)
  drift : int;  (** 0 perfect, 1 split, 2 alternating, 3 random walk *)
  delay : int;  (** 0 maximal, 1 zero, 2 uniform *)
  algo : int;  (** 0 gradient, 1 flat gradient, 2 max-only *)
  churn : bool;
  seed : int;
  horizon : float;
  faults : Dsim.Fault.schedule;
      (** deterministic fault-injection schedule, possibly empty *)
}

(** Whitespace-separated [key=value] tokens, shared with [Mcheck.Spec]. *)
module Fields : sig
  type t

  val parse : keys:string list -> string -> (t, string) result
  (** Rejects a token without [=], a key outside [keys], a key given
      twice and an empty value, each with an error naming the key. *)

  val get : t -> string -> (string, string) result
  val int : t -> string -> (int, string) result

  val bool : t -> string -> (bool, string) result
  (** [0] or [1]; anything else is an error. *)

  val horizon : t -> (float, string) result
  (** The required [horizon=] token, a positive float. *)

  val faults : t -> (Dsim.Fault.schedule, string) result
  (** The optional [faults=] token ({!Dsim.Fault.of_spec}); absent means
      no faults. Not range-checked: validate once [n] is known. *)
end

val to_spec : t -> string
(** Appends [faults=<Fault.to_spec>] only when the schedule is non-empty,
    so pre-fault specs round-trip unchanged. Floats print with
    {!Dsim.Fault.exact_float}, so [of_spec (to_spec s) = Ok s]. *)

val of_spec : string -> (t, string) result
(** The [faults=] token is optional (absent means no faults) and is
    validated against [n]; [topo=ring] needs [n >= 3]. Unknown or
    repeated keys are errors ({!Fields.parse}). *)

val generate : ?faults:bool -> Dsim.Prng.t -> t
(** Draw a scenario (n in 4–14, horizon 120, all knobs uniform). With
    [~faults:true] (default false) a fault schedule is drawn last from
    the same PRNG — non-fault campaigns are unchanged by the flag's
    existence. *)

val run : t -> Report.t
(** Build and run the scenario and audit it as it runs: conformance
    fed every trace entry as it is recorded (no log is kept, so no
    length cap applies), guarantees ({!Guarantees}) and validity
    ({!Gcs.Invariant}) sampled during the run — all three fault-aware
    when the scenario carries a schedule (the simulation uses fault seed
    [seed + 4]). The local-skew envelope is only asserted for the
    gradient algorithm. *)
