(** The two-chain network of Figure 1 and Theorem 4.1.

    Nodes [w0] and [wn] are connected by two parallel chains:
    chain A with [floor(n/2) - 1] internal nodes and chain B with
    [ceil(n/2) - 1] internal nodes ([n] nodes in total). The designated
    nodes [u] and [v] sit on chain A at distance [k] from [w0] and [wn]
    respectively; the A-chain edges within distance [k] of either end form
    the blocked set [E_block], which the delay mask constrains to the
    maximal delay so that the Masking Lemma can build [Ω(n)] skew between
    [u] and [v] (and hence, up to [2 k S], between [w0] and [wn]). The new
    edges of execution β are then drawn between B-chain nodes selected by
    Lemma 4.3. *)

type t = private {
  n : int;
  k : int;
  a_len : int;  (** chain-A positions run 0..a_len; [a_len = floor(n/2)] *)
  b_len : int;  (** chain-B positions run 0..b_len; [b_len = ceil(n/2)] *)
  u : int;      (** node id of [u] (chain A, position [k]) *)
  v : int;      (** node id of [v] (chain A, position [a_len - k]) *)
  edges : (int * int) list;
  block : (int * int) list;  (** E_block *)
}

val build : n:int -> k:int -> t
(** Requires [n >= 6] and [1 <= k < a_len/2 - 1] so that [u] and [v] are
    distinct and separated. *)

val w0 : t -> int

val wn : t -> int

val a_id : t -> int -> int
(** Node id of chain-A position [0..a_len]. *)

val b_id : t -> int -> int
(** Node id of chain-B position [0..b_len]. *)

val b_chain : t -> int list
(** Chain-B node ids in order [w0, ..., wn]. *)

val a_chain : t -> int list

val mask : t -> delay:float -> Mask.t
(** The delay mask constraining [E_block] to the given fixed delay
    (Theorem 4.1 uses the maximal delay [T]). *)

val is_block_edge : t -> int -> int -> bool

type insertion = {
  new_edges : (int * int) list;  (** between consecutive selected nodes *)
  clocks : float array;  (** the clocks along {!b_chain} *)
  c : float;  (** the target gap [I]: [max (2 d) (span / 2)] *)
  d : float;  (** the largest adjacent gap plus 0.5 *)
  selected : int list;  (** {!Subseq.extract}'s indices into [clocks] *)
}

val insertion : t -> clock:(int -> float) -> insertion
(** Lemma 4.3's new edges for the B-chain clocks [clock] reads (node id
    to logical clock, at the insertion time [T1]). *)
