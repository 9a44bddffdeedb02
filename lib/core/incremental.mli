(** Incremental dominated-connectivity under streaming topology updates.

    A tracker holds the l-hop connectivity curve of an evolving
    topology for a fixed broker set and source sample. Updates are
    applied as announce/withdraw operations; only the dominated subset
    (a broker endpoint) enters the projected overlay the evaluators
    sweep. The tracker keeps integer tallies per source, and after each
    burst re-sweeps only the *affected* sources — those whose distance
    vector changes — repacked into fresh MS-BFS batches
    ({!Broker_graph.Msbfs.lane_level} gives each its own tallies).

    The test is exact and stores no distances. Call an edge far apart
    for a source when its endpoints sit at least 2 hops apart from it,
    or exactly one of them is reachable: adding edges to a graph
    changes a source's distances iff one of them is far apart under
    the distances before. The union of the graphs before and after a
    burst is both the old graph plus the net announcements and the new
    graph plus the net withdrawals, so a source is affected iff a net
    announcement is far apart on the old graph or a net withdrawal on
    the new one. Distances are symmetric, so each side's distinct
    endpoints go {!Broker_graph.Msbfs.lanes} at a time to an MS-BFS
    sweep that watches the sources ({!Broker_graph.Msbfs.watch_distance}),
    and that gives the distances of every source at once. When a burst
    has more distinct endpoints than 3 × the MS-BFS batches of a full
    sweep, the tracker skips the test and re-sweeps every source instead
    ([fallback]). The rule depends on the burst alone.

    Equivalence guarantee: {!curve} is bitwise identical to running
    {!Connectivity.eval_sources} from scratch on the compacted updated
    graph with [l_max] 10 and the same broker set and source array — both
    paths sum the same integer counts and share
    {!Connectivity.curve_of_counts} — for any [REPRO_DOMAINS].

    Single-writer: {!apply} is not domain-safe (re-sweeps parallelize
    internally over read-only snapshots). *)

type t

type op =
  | Add of int * int  (** announce edge [(u, v)] *)
  | Remove of int * int  (** withdraw edge [(u, v)] *)

type stats = {
  applied : int;  (** ops that changed the dominated edge set *)
  noops : int;  (** dominated ops that were already satisfied *)
  ignored : int;  (** ops with no broker endpoint (outside the projection) *)
  sources_affected : int;
      (** sources whose distance vector changed; every source on a
          [fallback] *)
  batches_reevaluated : int;  (** batches the affected sources packed into *)
  batches_total : int;
      (** MS-BFS batches of a full sweep
          ([ceil (sources / Msbfs.lanes)]) *)
  fallback : bool;
      (** the burst had more distinct endpoints than 3 × [batches_total],
          so every source was re-swept untested *)
}

val create :
  Broker_graph.Graph.t ->
  is_broker:(int -> bool) ->
  sources:int array ->
  t
(** Project the base graph and tally every source (full initial
    evaluation) up to 10 hops, the {!Connectivity.eval_sources} default.
    The source array is copied.
    @raise Invalid_argument when a source is out of range. *)

val apply : t -> op array -> stats
(** Apply an update burst and re-sweep the affected sources. Returns the
    burst's statistics. The burst is
    atomic: every endpoint is checked before any op is applied.
    @raise Invalid_argument when an endpoint is out of range; the
    tracker is then unchanged. *)

val curve : t -> Connectivity.curve
(** Current connectivity curve, bitwise identical to a from-scratch
    {!Connectivity.eval_sources} on the updated topology. *)

val saturated : t -> float
(** [saturated] of {!curve}. *)
