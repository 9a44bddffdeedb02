(** Business-relationship-aware (directional) connectivity — Fig. 5b/5c.

    Under real AS economics a path must be valley-free (Gao–Rexford): zero
    or more customer→provider hops, at most one peering hop, then zero or
    more provider→customer hops. IXP fabrics are transparent: entering an
    IXP does not consume the peering transition, leaving it toward an AS
    does. The broker restriction composes with this — every hop still needs
    a broker endpoint.

    "Changing an inter-broker connection to bidirectional" (Fig. 5b) marks a
    broker–broker edge as freely traversable in both directions at any path
    phase, modelling the mutual-transit agreement the brokerage coalition
    signs internally. *)

type upgrades
(** A set of undirected edges upgraded to free traversal, held as bits
    over the arc indices of the graph it was drawn on. *)

val no_upgrades : upgrades [@@brokercheck.test_only]
(** The empty set; fits every graph. *)

val upgrade_broker_edges :
  rng:Broker_util.Xrandom.t ->
  Broker_topo.Topology.t ->
  brokers:int array ->
  fraction:float ->
  upgrades
(** Uniformly sample [fraction] of the broker–broker edges of the
    topology's graph. *)

val upgrade_count : upgrades -> int
(** Number of upgraded edges. *)

val is_upgraded : upgrades -> int -> int -> bool [@@brokercheck.test_only]
(** [is_upgraded up u v] iff [uv] is an upgraded edge (either
    orientation). O(log d). *)

val distances :
  ?upgrades:upgrades ->
  Broker_topo.Topology.t ->
  is_broker:(int -> bool) ->
  int ->
  int array [@@brokercheck.test_only]
(** [distances topo ~is_broker src]: hop count of the shortest
    valley-free, B-dominated path from [src] to every vertex, [-1] when
    there is none. Same engine and exceptions as {!curve_sampled}. *)

val curve_sampled :
  ?l_max:int ->
  ?upgrades:upgrades ->
  ?source_set:int array ->
  rng:Broker_util.Xrandom.t ->
  sources:int ->
  Broker_topo.Topology.t ->
  is_broker:(int -> bool) ->
  Connectivity.curve [@@brokercheck.test_only]
(** l-hop E2E connectivity where paths must be valley-free (modulo upgraded
    edges) and B-dominated. Edges without a recorded relation are treated as
    peering. [source_set] pins the BFS sources (common random numbers when
    comparing broker sets or upgrade levels); otherwise [sources] are drawn
    from [rng]. The sources share one sweep workspace: a two-phase
    (ascending, descending) array BFS that reads each arc's relation
    label by arc index.
    @raise Invalid_argument when [upgrades] were drawn on another graph,
    when the topology's relations label another graph, or when a source
    is out of range. *)

val saturated_sampled :
  ?upgrades:upgrades ->
  ?source_set:int array ->
  rng:Broker_util.Xrandom.t ->
  sources:int ->
  Broker_topo.Topology.t ->
  is_broker:(int -> bool) ->
  float
