(** Per-link latency model and latency-aware dominated-path selection.

    The paper's brokers take responsibility for "network performance
    measurement" — this module gives them something to measure. Latencies
    are drawn per undirected edge from relation-dependent bases (IXP fabric
    hops are fastest, peering links fast, transit links slower) with
    multiplicative jitter, deterministically from the RNG. The QoS path
    for a pair is then the minimum-latency B-dominated path, which can
    differ from the minimum-hop one. *)

type t

val assign : rng:Broker_util.Xrandom.t -> Broker_topo.Topology.t -> t
(** Draw a latency for every edge. Bases (ms): IXP membership 2, peering
    5, customer-provider 10, unknown 8; jitter multiplies by U[0.5, 1.5]. *)

val edge_latency : t -> int -> int -> float [@@brokercheck.test_only]
(** Latency of an edge in ms, O(log degree).
    @raise Invalid_argument when [(u,v)] is not an edge. *)

val path_latency : t -> int list -> float [@@brokercheck.test_only]
(** Sum over consecutive hops. 0 for paths shorter than 2 vertices. *)

val min_latency_path :
  t ->
  Broker_topo.Topology.t ->
  is_broker:(int -> bool) ->
  src:int ->
  dst:int ->
  (int list * float) option
(** Minimum-latency B-dominated path and its latency, or [None] when no
    dominated path exists. *)

val stretch :
  t ->
  Broker_topo.Topology.t ->
  is_broker:(int -> bool) ->
  src:int ->
  dst:int ->
  float option
(** Latency of the best dominated path over the latency of the best
    unrestricted path (>= 1); [None] when either does not exist. *)
