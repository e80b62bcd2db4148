(** Static topology generators and graph utilities.

    All generators return normalized edge lists ([u < v]) over nodes
    [0 .. n-1]; every generated graph is connected. *)

val path : int -> (int * int) list
(** [0-1-2-...-(n-1)]. *)

val ring : int -> (int * int) list
(** Requires [n >= 3]. *)

val star : int -> (int * int) list
(** Node 0 is the hub. *)

val complete : int -> (int * int) list

val grid : rows:int -> cols:int -> (int * int) list
(** Node [(r, c)] has id [r * cols + c]. *)

val binary_tree : int -> (int * int) list
(** Node [i]'s parent is [(i - 1) / 2]. *)

val erdos_renyi : Dsim.Prng.t -> n:int -> p:float -> (int * int) list
(** G(n, p), resampled (up to 1000 attempts) until connected. *)

val cluster :
  Dsim.Prng.t -> n:int -> clusters:int -> degree:int -> (int * int) list
(** Clustered communities over a shuffled id space: each community is a
    ring plus random chords to an average [degree], communities joined
    in a ring by single bridge edges (always connected). Node ids are
    scattered by a random permutation, so a contiguous shard split cuts
    almost every intra-cluster edge — the adversarial input for
    sharded dispatch. O(n * degree); [clusters] in [1, n/2],
    [degree >= 2]. *)

val random_geometric :
  Dsim.Prng.t -> n:int -> radius:float -> (float * float) array * (int * int) list
(** Uniform points in the unit square, edges within [radius]. The radius
    is grown (by 10% steps) until the graph is connected; positions are
    returned for mobility-style rewiring. *)

(** {1 Utilities} *)

val is_connected : n:int -> (int * int) list -> bool

val distances : n:int -> (int * int) list -> int -> int array
(** BFS hop distances from a source; [max_int] for unreachable nodes. *)

val dist : n:int -> (int * int) list -> int -> int -> int

val diameter : n:int -> (int * int) list -> int
(** Hop diameter; raises [Invalid_argument] on disconnected graphs. *)

val spanning_tree : n:int -> (int * int) list -> (int * int) list
(** Some spanning tree (BFS from node 0); requires connectivity. *)

val non_tree_edges : n:int -> (int * int) list -> (int * int) list
(** Edges outside {!spanning_tree}. *)
