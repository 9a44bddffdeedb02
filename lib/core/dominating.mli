(** B-dominating path predicates and construction (Definition 1), plus the
    Fig. 5a "90% of E2E connections only use nodes in the broker set"
    analysis. *)

val is_dominated_path : is_broker:(int -> bool) -> int list -> bool [@@brokercheck.test_only]
(** Every hop of the path has at least one broker endpoint. Paths of fewer
    than 2 vertices are vacuously dominated. *)

val find_dominated_path_view :
  Broker_graph.View.t -> is_broker:(int -> bool) -> int -> int -> int array
(** [find_dominated_path_view vw ~is_broker u v] is the canonical
    shortest B-dominated path from [u] to [v] as a fresh array of exactly
    its vertices, [u] first and [v] last; [[|u|]] when [u = v] and
    [[||]] when no dominated path exists. It reads a
    {!Broker_graph.View.t}, so the simulator can route against a live
    {!Broker_graph.Delta} overlay without compacting after every
    topology update.

    The canonical path is the lexicographically smallest of the shortest
    paths whose every arc has a broker endpoint. It is the path of a FIFO
    breadth-first search from [u] over ascending segments in which each
    vertex keeps its first discoverer as parent: within a level, that
    search's queue order is the lexicographic order of the vertices'
    discoverer paths, so a first discoverer always ends the smallest
    prefix. The rule fixes the path whatever order a search explores in
    (this one is bidirectional, see dominating.ml), so the goldens do not
    depend on the implementation. It needs every segment of [vw] sorted
    ascending, as {!Broker_graph.Graph} and {!Broker_graph.Delta} keep
    them. A removal (a broker going down, an edge withdrawn) that leaves
    every arc of the path present and dominated leaves the answer
    unchanged: the path is still shortest, and a smaller shortest path in
    the smaller graph would exist in the larger one too.

    It allocates nothing but the result: each domain keeps one search
    workspace (marks, parents, a queue both sides share and the target's
    level starts: four int arrays, about 4n words) that every call on
    that domain reuses, grown to the largest [n] seen and never shrunk —
    about 1.7 MB at the full 52,079-vertex scale. [is_broker] must
    therefore not start another search on the same domain; a nested call
    would reuse the workspace of the running one. With brokerscope on,
    each call adds 1 to the [dominating.searches] counter and the
    adjacency entries and level members it read to
    [dominating.arcs_scanned].
    @raise Invalid_argument naming [Dominating] when [u] or [v] is not a
    vertex of the view. *)

val find_dominated_path :
  Broker_graph.Graph.t -> is_broker:(int -> bool) -> int -> int -> int list
(** {!find_dominated_path_view} over the static graph, as a list ([[]]
    when no dominated path exists). *)

type broker_only = {
  broker_only_pairs : float;
      (** fraction of all ordered pairs connected through broker-internal
          paths only (intermediate hops all brokers) *)
  saturated_pairs : float;
      (** fraction connected through any dominated path *)
  ratio : float;
      (** [broker_only_pairs / saturated_pairs] — the paper's ">90%"
          statistic *)
}

val broker_only_fraction :
  rng:Broker_util.Xrandom.t ->
  sources:int ->
  Broker_graph.Graph.t ->
  brokers:int array ->
  broker_only
(** A pair [(u,v)] counts as broker-only when some connected component of
    the broker-induced subgraph is adjacent to (or contains) both [u] and
    [v] — i.e. traffic enters the broker mesh at the first hop and leaves it
    at the last, paying no non-broker transit. *)
