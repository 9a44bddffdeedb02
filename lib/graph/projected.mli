(** Materialized broker-dominated subgraphs.

    For a broker set [B], the paper's evaluation only ever traverses the
    edge [(u,v)] when [u ∈ B] or [v ∈ B] (the "B_A ⊙ A" operator of
    Section 5.2). The generic traversals re-test that predicate on every
    edge of every BFS; [project] instead materializes the dominated
    subgraph once — a single O(|V| + |E|) pass producing a compact CSR with
    exactly the dominated edges — after which every per-source BFS is
    closure-free and touches only edges that can actually be used.
    Amortized over the hundreds of sources of one connectivity evaluation,
    the projection pays for itself many times over.

    Vertex ids are shared with the source graph (non-dominated vertices
    simply have empty adjacency), so sources, distances and histograms need
    no translation. A projection is immutable and snapshots the broker set
    at [project] time: if the broker set changes, project again. *)

type t

val project : Graph.t -> is_broker:(int -> bool) -> t
(** [project g ~is_broker] evaluates [is_broker] once per vertex and keeps
    exactly the edges with a broker endpoint. Sorted/deduplicated/symmetric
    CSR invariants are inherited from [g], not recomputed. *)

val graph : t -> Graph.t
(** The dominated subgraph, on the same vertex ids as the source graph.
    BFS distances over it equal [Bfs.distances_filtered] distances over the
    source graph under the dominated-edge predicate (the property the
    qcheck suite pins down). *)

val broker_count : t -> int [@@brokercheck.test_only]

val arcs : t -> int [@@brokercheck.test_only]
(** Directed arcs kept by the projection (2x its undirected edge count). *)
