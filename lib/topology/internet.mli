(** Synthetic AS-level Internet topology with IXPs.

    Stand-in for the paper's 2014 CAIDA/RouteViews + IXP dataset (Table 2):
    51,757 ASes, 322 IXPs, 347,332 AS–AS connections, 55,282 AS–IXP
    connections, 40.2% of ASes IXP-connected, and the (0.99, 4)-graph
    small-world property. The generator reproduces those aggregates with a
    tiered construction:

    - a clique of tier-1 providers (settlement-free peering);
    - transit ASes multihoming into the tier-1/transit core
      (customer-to-provider links, degree-preferential provider choice);
    - stub ASes (access/content/enterprise) multihoming into transit;
    - extra degree-preferential peering links up to the AS–AS edge budget;
    - IXPs with heavy-tailed membership sizes over a degree-biased 40% of
      ASes.

    All randomness comes from the seeded generator, so a parameter set
    identifies the topology exactly. *)

type params = {
  n_as : int;
  n_ixp : int;
  n_tier1 : int;
  transit_frac : float;  (** fraction of ASes that are transit providers *)
  as_as_edge_target : int;
  as_ixp_edge_target : int;
  ixp_connect_frac : float;  (** fraction of ASes with >= 1 IXP membership *)
  seed : int;
}

val default : params
(** Full paper scale: 51,757 ASes + 322 IXPs. *)

val scaled : float -> params
(** [scaled s] shrinks every size of [default] by factor [s] (>= some small
    minimums so the structure survives). *)

val generate : params -> Topology.t
(** Deterministic for a given [params].
    @raise Invalid_argument ["Internet.generate: sizes"] unless
    [2 <= n_tier1 < n_as], and ["Internet.generate: <field> …"] when
    [n_ixp < 1], when [transit_frac] or [ixp_connect_frac] is outside
    [\[0, 1\]] (NaN included), or when an edge target is negative. *)
