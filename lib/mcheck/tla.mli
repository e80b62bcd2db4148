(** TLA+ trace-instance export for Apalache cross-validation.

    Turns one explored branch's probe samples ({!Explorer.samples}) into
    a standalone TLA+ module embedding the integer-scaled (by 1000)
    [(time, L, Lmax)] sequence and re-stating the abstract sample-step
    relation of [spec/ClockSyncGcs.tla] ([SampleOk]: minimum logical
    rate between samples, Lmax dominance), so a simulator execution can
    be checked against the hand-written spec's abstraction with
    [apalache-mc check --inv=StepOk]. See [spec/README.md]. *)

val export :
  module_name:string -> Spec.t -> (float * float array * float array) list -> string
(** The full module text. [module_name] must match the file name the
    caller writes it to (a TLA+ requirement). Branches with faults or
    churn set [RATE_CHECK == FALSE]: discontinuities legitimately break
    the sampled min-rate bound, so those traces only check dominance. *)
