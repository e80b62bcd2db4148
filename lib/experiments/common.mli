(** Shared experiment plumbing: standard configurations, one-call
    simulation runs with metrics and invariant monitoring attached, and a
    uniform result format (tables + pass/fail checks) consumed by the
    CLI and the test suite. *)

type check = { name : string; pass : bool; detail : string }

type result = {
  id : string;
  title : string;
  tables : Analysis.Table.t list;
  checks : check list;
}

val check : name:string -> pass:bool -> ('a, Format.formatter, unit, check) format4 -> 'a
(** [check ~name ~pass fmt ...] builds a check with a formatted detail. *)

val all_pass : result -> bool

val pp_result : Format.formatter -> result -> unit

(** {1 Simulation helpers} *)

type run = {
  sim : Gcs.Sim.t;
  recorder : Gcs.Metrics.recorder;
  invariants : Gcs.Invariant.monitor;
}

val launch :
  ?watch:(int * int) list ->
  ?churn:Topology.Churn.event list ->
  ?sample_every:float ->
  Gcs.Sim.config ->
  horizon:float ->
  run
(** Create the simulation, attach a metrics recorder and an invariant
    monitor sampling every [sample_every] (default 1.0), schedule the
    churn events, and run to the horizon. *)

val invariants_check : run -> check
(** A standard "no validity violations" check for a finished run. *)
