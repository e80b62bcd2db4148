(** Discrete-event simulation substrate for dynamic networks with
    drifting hardware clocks (the model of Section 3.2 of the paper).

    Everything here is algorithm-agnostic: {!Engine} drives arbitrary
    node automata that only see their own hardware clock, message
    receipt, discovery events and subjective-time timers. *)

module Prng = Prng
(** Deterministic splittable PRNG (splitmix64). *)

module Equeue = Equeue
(** Flat SoA event queue the engine schedules on: int-encoded events in
    an indirect heap, allocation-free push/pop. *)

module Timewheel = Timewheel
(** Hierarchical timer wheel the engine keeps armed timers in, outside
    the event queue. *)

module Hwclock = Hwclock
(** Piecewise-linear drifting hardware clocks with exact inverses. *)

module Delay = Delay
(** Message delay policies in [\[0, T\]], including adversarial and
    (optionally) lossy ones. *)

module Dyngraph = Dyngraph
(** The dynamic edge set with per-edge change epochs. *)

module Trace = Trace
(** Execution event counters and optional structured logs. *)

module Fault = Fault
(** Deterministic fault-injection schedules: crash/restart, duplication,
    reordering and Byzantine windows. *)

module Engine = Engine
(** The simulator core: topology changes, discovery, FIFO delivery,
    subjective timers, probes. *)
