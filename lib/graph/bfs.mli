(** Breadth-first search closure traversals.

    The broker evaluation repeatedly runs BFS over "restricted" graphs — e.g.
    the edge [(u,v)] is traversable only when at least one endpoint is a
    broker. The traversals below accept an [edge_ok] predicate and filter
    on the fly: no setup cost, one O(|V| + |E|) pass and a fresh distance
    array per call. They are the right tool for a single query and the
    oracles {!Msbfs} is property-tested against. Many sources sharing one
    restriction go through {!Msbfs} over a prematerialized graph (usually
    a {!Projected} dominated subgraph) instead.

    Each call adds 1 to the [bfs.runs] counter and the vertices it
    reached, sources included, to [bfs.settled]. *)

val distances : Graph.t -> int -> int array
(** [distances g src] gives hop distances from [src]; [-1] marks unreachable
    vertices. *)

val distances_bounded : Graph.t -> max_depth:int -> int -> int array [@@brokercheck.test_only]
(** Stop expanding beyond [max_depth] hops. *)

val distances_filtered :
  Graph.t -> edge_ok:(int -> int -> bool) -> int -> int array
(** [distances_filtered g ~edge_ok src]: the step x→y is taken only when
    [edge_ok x y] holds. [edge_ok] need not be symmetric (directional routing
    uses an asymmetric predicate). *)

val distances_multi : Graph.t -> int list -> int array
(** Distance to the nearest of several sources. *)

val parents : Graph.t -> int -> int array
(** BFS tree parents from [src] ([-1] for the source and unreachable
    vertices); used to extract shortest paths for Algorithm 2's connector
    selection. *)

val path_to : parents:int array -> src:int -> int -> int list
(** Reconstruct the path [src..dst] from a [parents] array. Returns [[]] when
    [dst] was not reached. *)
