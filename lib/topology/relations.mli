(** Business relations of a topology's edges, stored as one byte per CSR
    arc of its graph.

    Each arc [u -> v] carries a {!label} read from its tail [u]: [Up]
    when [u] buys transit from [v], [Down] for the provider's side of
    the same edge, [Peer] for settlement-free peering, [Ixp_member] for
    an AS–IXP membership, [Unlabelled] when no relation is recorded. The
    two arcs of an edge always carry matching labels ([Up] with [Down],
    the others with themselves). This module is the only one that knows
    how labels are encoded: the rest of the code reads them through
    {!arc} (by arc index, for traversal kernels) or through the O(log d)
    edge queries below. *)

type t

type label =
  | Unlabelled
  | Up  (** the arc's tail is a customer of its head *)
  | Down  (** the arc's tail is a provider of its head *)
  | Peer
  | Ixp_member

val create : Broker_graph.Graph.t -> t
(** Every arc of the graph unlabelled. The labels belong to this graph:
    arc indices are its {!Broker_graph.Graph.csr_adj} indices. *)

val graph : t -> Broker_graph.Graph.t
(** The graph the labels were created for. *)

val add_c2p : t -> customer:int -> provider:int -> unit
val add_peer : t -> int -> int -> unit

val add_ixp_member : t -> as_node:int -> ixp:int -> unit
(** The three setters label both arcs of an existing edge, replacing any
    earlier label; O(log d).
    @raise Invalid_argument ["Relations.add_…: self edge"] when the
    endpoints coincide and ["Relations.add_…: not an edge"] when the
    graph has no such edge. *)

val remap : t -> Broker_graph.Graph.t -> old_id:(int -> int) -> t
(** [remap t g ~old_id] labels [g], whose vertex [x] is vertex [old_id x]
    of [t]'s graph ([-1] for a vertex [t] does not know): an arc whose
    endpoints map onto an edge of [t]'s graph takes that edge's label,
    every other arc starts unlabelled. Used when a topology is rebuilt
    around a new graph (restriction, growth). *)

val arc : t -> int -> label
(** Label of the arc with index [i] in the graph's CSR adjacency.
    @raise Invalid_argument outside [0 .. Graph.arcs - 1]. *)

val find : t -> int -> int -> Node_meta.relation option
(** Relation of the undirected edge [uv], if recorded; [None] also for a
    non-edge. O(log d). *)

val customer_of : t -> int -> int -> bool
(** [customer_of t u v] iff [uv] is a C2P edge with [u] the customer. *)
