(** Breadth-first search variants.

    The broker evaluation repeatedly runs BFS over "restricted" graphs — e.g.
    the edge [(u,v)] is traversable only when at least one endpoint is a
    broker. Two strategies are provided:

    - the generic traversals below accept an [edge_ok] predicate and filter
      on the fly — no setup cost, one O(|V| + |E|) pass, the right tool for
      a single query (and the reference implementation the engine is
      property-tested against);
    - the workspace engine at the bottom runs closure-free
      direction-optimizing BFS over a prematerialized graph (usually a
      {!Projected} dominated subgraph) with zero per-run allocation — the
      right tool when many sources share one restriction. *)

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

(** {1 Direction-optimizing BFS engine}

    A {!workspace} owns every scratch array a BFS run needs (epoch-stamped
    distances, frontier queues, per-level counters). Allocate one per
    domain, then {!run} it once per source: runs reuse the arrays with an
    epoch bump instead of clearing them, so the marginal cost of a run is
    exactly the traversal. Queries ({!distance}, {!level_count}, ...) refer
    to the most recent {!run} and are invalidated by the next one.

    Expansion switches between conventional top-down frontier scans and
    bottom-up probing (Beamer's direction-optimizing BFS): once the
    frontier's out-edges dominate the unexplored edge set — which on
    broker-dominated graphs happens one or two hops out of the high-degree
    core — each still-unsettled vertex instead scans its own adjacency for
    a frontier member and stops at the first hit. Both directions settle
    identical vertices at identical depths, so results never depend on the
    switching heuristic. *)

type workspace
(** Reusable scratch for {!run}. Not thread-safe: confine each workspace to
    one domain. *)

val workspace : unit -> workspace
(** An empty workspace; arrays are sized lazily by the first {!run} (and
    regrown if a later run presents a larger graph). *)

val run : workspace -> Graph.t -> int -> unit
(** [run ws g src] computes single-source hop distances from [src] over
    [g], leaving the results in [ws].
    @raise Invalid_argument when [src] is outside [0 .. n-1]. *)

val run_view : workspace -> View.t -> int -> unit
(** {!run} over a {!View.t} — the same engine reading through the
    base-or-overlay segment selector, so dynamic-topology callers
    traverse a {!Delta} overlay without compacting it first. *)

val distance : workspace -> int -> int
(** Distance of a vertex in the last run; [-1] when unreached. *)

val reached : workspace -> int [@@brokercheck.test_only]
(** Vertices settled by the last run, source included. *)

val max_level : workspace -> int [@@brokercheck.test_only]
(** Deepest level settled by the last run (0 when only the source). *)

val level_count : workspace -> int -> int [@@brokercheck.test_only]
(** [level_count ws d]: vertices settled at depth exactly [d], for
    [d] in [0 .. max_level ws] — the per-hop histogram the connectivity
    curves are built from, with no O(n) distance scan.
    @raise Invalid_argument outside that range. *)

val distances_into : workspace -> int array -> unit [@@brokercheck.test_only]
(** Materialize the last run's distances ([-1] = unreached) into a caller
    array, [Array.length]-clamped — the bridge back to the
    [distances_filtered]-style API for tests and one-off callers. *)
