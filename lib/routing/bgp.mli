(** BGP-like route computation under Gao–Rexford policies.

    For a destination [d], every AS selects its most-preferred valley-free
    route: customer routes over peer routes over provider routes, shortest
    AS path within a class — the standard abstraction of BGP decision
    making. Computed with three BFS passes per destination:

    + customer routes: ascend provider links from [d];
    + peer routes: one peering hop off a customer route;
    + provider routes: descend customer links from any routed AS.

    The paper's claim that BGP cannot guarantee E2E QoS beyond the first
    hop motivates the broker scheme; this module supplies the BGP baseline
    paths the examples compare against. *)

type route_class = Via_customer | Via_peer | Via_provider

type route = { hops : int; via : route_class }

val routes_to : Broker_topo.Topology.t -> int -> route option array [@@brokercheck.test_only]
(** [routes_to topo d] gives every vertex's selected route toward [d]
    ([None] when no policy-compliant route exists; the destination itself
    has [hops = 0, via = Via_customer]). IXP nodes participate as
    transparent fabrics: their memberships behave as peerings. *)

val reachable_fraction :
  rng:Broker_util.Xrandom.t -> destinations:int -> Broker_topo.Topology.t -> float
(** Fraction of ordered pairs with a policy-compliant BGP route, estimated
    over sampled destinations. *)

val average_path_length :
  rng:Broker_util.Xrandom.t -> destinations:int -> Broker_topo.Topology.t -> float
(** Mean selected-route length over reachable sampled pairs. *)
