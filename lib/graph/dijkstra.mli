(** Dijkstra shortest paths with arbitrary non-negative edge weights.

    Algorithm 2 of the paper quotes the Fibonacci-heap complexity
    [O(|V| log |V| + |E|)]; we use a binary heap with lazy deletion, which is
    within a log factor and faster in practice at this scale. *)

val shortest_paths :
  ?edge_ok:(int -> int -> bool) ->
  Graph.t ->
  weight:(int -> int -> float) ->
  int ->
  float array * int array [@@brokercheck.test_only]
(** [shortest_paths g ~weight src] returns [(dist, parent)]. Unreachable
    vertices have [dist = infinity] and [parent = -1]. [edge_ok] filters
    traversable arcs (e.g. the broker-domination predicate), defaulting to
    all.
    @raise Invalid_argument on a negative weight. *)

val shortest_path :
  ?edge_ok:(int -> int -> bool) ->
  Graph.t ->
  weight:(int -> int -> float) ->
  int ->
  int ->
  int list
(** Vertex sequence of a shortest path [src..dst], or [[]] when
    unreachable. *)
