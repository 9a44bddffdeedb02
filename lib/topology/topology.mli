(** A labelled AS-level topology: the graph plus node kinds, tiers, display
    names and business relations. This is the composite structure the
    experiments consume. *)

type t = {
  graph : Broker_graph.Graph.t;
  kinds : Node_meta.kind array;
  tiers : int array;
      (** 1 = tier-1, 2 = transit, 3 = stub levels, 0 = IXP *)
  names : string array;
  relations : Relations.t;  (** labels of [graph]'s arcs *)
}

val n : t -> int
val is_ixp : t -> int -> bool
val is_as : t -> int -> bool
val ixps : t -> int array
val ases : t -> int array

val count_kind : t -> Node_meta.kind -> int

val as_as_edges : t -> int
(** Number of AS–AS connections (paper's Table 2 row). *)

val as_ixp_edges : t -> int
(** Number of AS–IXP connections. *)

val with_ases_only : t -> t * int array
(** Restriction to AS nodes ("ASes without IXPs" in Table 3). Returns the
    restricted topology and the mapping from new ids to old ids. *)

val tier1_members : t -> int array

val ixp_connected_fraction : t -> float
(** Fraction of ASes with at least one IXP membership (paper: 40.2%). *)
