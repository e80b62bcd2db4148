(** Wire protocol shared by the gradient algorithm and the baselines. *)

type message = { l : float; lmax : float }
(** The update [⟨L_u, Lmax_u⟩] broadcast every subjective [ΔH]
    (Algorithm 2). *)

type timer =
  | Tick          (** the periodic broadcast alarm *)
  | Lost of int   (** [lost(v)]: armed on each receipt from [v], fires
                      after subjective [ΔT'] of silence *)

val timer_label : timer -> int
(** Injective int encoding for the engine's timer tables and trace
    records: [Tick] is [0], [Lost v] is [v + 1]. *)

val timer_of_label : int -> timer
(** The inverse of {!timer_label}, for readers of trace records. Raises
    [Invalid_argument] on a negative label. *)

val restart_registers : corrupt:Dsim.Prng.t option -> at:float -> float * float
(** [(L, Lmax)] a node restarts from at hardware reading [at]: [(0, 0)],
    or with [corrupt = Some prng] arbitrary values drawn from [prng]
    ([L] first, then the gap to [Lmax]), scaled to [at] and kept ordered
    [L <= Lmax] — the transient-fault starting point of the
    self-stabilization question. Shared by every protocol's restart. *)

type ctx = (message, timer) Dsim.Engine.ctx

type handlers = (message, timer) Dsim.Engine.handlers
