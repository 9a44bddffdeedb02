(** Radius-bounded broker selection — the constructive side of Problem 4
    (MCBG with path-length constraints).

    A broker "r-covers" every vertex within [radius] hops. If every vertex
    is r-covered and the broker mesh is mutually dominated, an E2E path
    needs at most [2·radius] hops to enter and leave the mesh plus the
    mesh distance — giving a handle on the path-length distribution
    [F_B(l)] that plain coverage maximization lacks. The selection below is
    the lazy greedy over the (submodular) r-ball coverage function,
    restricted — like MaxSG — to candidates already inside the dominated
    region so the output keeps the B-dominating-path guarantee. *)

val run : Broker_graph.Graph.t -> k:int -> radius:int -> int array
(** Brokers in selection order. Two phases: the r-ball greedy runs until
    every reachable vertex is r-covered (the "spread" phase, bounding the
    hops from any endpoint to its nearest broker); any remaining budget is
    spent on {!Maxsg.grow}-style 1-hop coverage picks (the "densify"
    phase, pushing the dominated-path connectivity up). [radius >= 1];
    [radius = 1] coincides with {!Maxsg.run}'s objective. *)

val covered_within : Broker_graph.Graph.t -> brokers:int array -> radius:int -> int [@@brokercheck.test_only]
(** Number of vertices within [radius] hops of some broker (brokers
    included). *)
