(** The comparison broker-selection strategies of Section 5.1 / Fig. 2.

    Order-producing baselines (DB, PRB) return the full ranking so prefixes
    give every budget at once; set-producing baselines (SC, IXPB, Tier1Only)
    return the set the strategy defines. *)

val degree_order : Broker_graph.Graph.t -> int array [@@brokercheck.test_only]
(** DB: all vertices by decreasing degree (ties by id). *)

val db : Broker_graph.Graph.t -> k:int -> int array
(** Top-[k] prefix of [degree_order]. *)

val pagerank_order : Broker_graph.Graph.t -> int array
(** PRB: all vertices by decreasing PageRank. *)

val prb : Broker_graph.Graph.t -> k:int -> int array

val set_cover : rng:Broker_util.Xrandom.t -> Broker_graph.Graph.t -> int array
(** SC [31]: sweep the vertices in a uniform random order, adding every
    vertex that is not yet dominated. Produces a (maximal-independent-style)
    dominating set — valid but typically enormous, which is the point of
    Fig. 2a. *)

val ixpb : Broker_topo.Topology.t -> min_degree:int -> int array
(** IXPB: all IXPs with degree at least [min_degree] ([0] selects every
    IXP, the configuration of Table 1's "[20],[21],[22]" row). *)

val tier1_only : Broker_topo.Topology.t -> int array
(** Tier1Only: exactly the tier-1 clique. *)
