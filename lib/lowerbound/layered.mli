(** The two indistinguishable executions of the Masking Lemma (Lemma 4.2).

    Given a static network, a delay mask [M] and a reference node [u], the
    lemma partitions nodes into layers [L_i] by flexible distance from [u]
    and defines:

    - execution [alpha]: all hardware clocks run at rate 1; messages on a
      constrained edge take exactly [P(e)]; on an unconstrained edge from
      the lower to the higher layer they take [T], and [0] in the other
      direction;
    - execution [beta]: node [x] runs at rate [1+rho] until its hardware
      clock satisfies [H(t) = t + T·dist_M(u, x)] (i.e. until real time
      [T·dist_M(u, x)/rho]) and at rate 1 afterwards, so
      [H_x(t) = t + min(rho t, T·dist_M(u, x))] — equation (1) of the
      paper. Message delays in [beta] are chosen so that send/receive
      hardware-clock readings match [alpha] exactly, making the two
      executions indistinguishable to every node while remaining
      [M]-constrained.

    Running any deterministic DCSA in both executions therefore yields, at
    any time [t > T·dist_M(u, v)(1 + 1/rho)], a logical-clock skew of at
    least [T·dist_M(u, v)/4] between [u] and [v] in at least one of them. *)

type t

val prepare :
  n:int ->
  edges:(int * int) list ->
  mask:Mask.t ->
  source:int ->
  rho:float ->
  delay_bound:float ->
  t
(** Compute layers and the derived schedules. [delay_bound] is the model's
    [T]; every masked delay must lie in [\[0, T\]]. *)

val layer : t -> int -> int
(** [dist_M(source, x)]. *)

val depth : t -> int
(** [max_x dist_M(source, x)]. *)

val alpha_clocks : t -> Dsim.Hwclock.t array
(** All perfect. *)

val beta_clocks : t -> Dsim.Hwclock.t array

val alpha_delay_policy : t -> Dsim.Delay.t

val beta_delay_policy : t -> Dsim.Delay.t
(** Derived online from the alpha delays through the clock mapping. *)

val min_time : t -> int -> float
(** [min_time t v] is [T·dist_M(source, v)(1 + 1/rho)]: the lemma's
    earliest time at which the skew guarantee holds between the prepared
    source and [v]. *)

val guaranteed_skew : t -> int -> float
(** [guaranteed_skew t v] is [T·dist_M(source, v)/4], the skew the lemma
    guarantees between the source and [v] in at least one of the two
    executions. *)

type closing = {
  edges : (int * int) list;  (** the path [0 - 1 - ... - (n-1)] *)
  clocks : Dsim.Hwclock.t array;  (** {!beta_clocks} *)
  delay : Dsim.Delay.t;  (** {!beta_delay_policy} *)
  t_add : float;  (** [min_time (n-1) + 10] *)
}

val closing_path : n:int -> rho:float -> delay_bound:float -> closing
(** The Section 1 adversary: execution [beta] on a path with the empty
    mask and source 0, which by [t_add] has built [Θ(n)] skew between the
    ends, where a new edge [{0, n-1}] then closes the path. Raises
    [Invalid_argument] for [n < 3], where that edge already exists. *)
