(** Streaming topology updates: announce/withdraw events plus the
    propagation model that turns an origin-time update into the moment
    the broker layer actually learns about it.

    Two propagation models from the paper's deployment discussion:

    - {!Centralized}: every update reaches the broker control plane
      after one constant delay (an SDN-style feed).
    - {!Bgp_like}: an update crawls hop by hop, so its delivery lag is
      [base + per_hop * hops] where [hops] is the BGP-like distance
      from the update's nearer endpoint to the closest broker on the
      pre-update graph. *)

type op =
  | Announce of int * int  (** new undirected edge [(u, v)] *)
  | Withdraw of int * int  (** retract undirected edge [(u, v)] *)

val op_endpoints : op -> int * int

type event = { time : float; op : op }
(** An update stamped with its origin time (when the edge actually
    changed, not when anyone hears of it). *)

type propagation =
  | Centralized of { delay : float }
  | Bgp_like of { base : float; per_hop : float }

val burst :
  rng:Broker_util.Xrandom.t ->
  Broker_graph.Graph.t ->
  size:int ->
  op array
(** Deterministic burst of [size] distinct updates at time 0: half of
    them, rounded up, withdraws of uniformly sampled existing edges, the
    rest announces of fresh non-edges. Rejection sampling is bounded, so
    bursts on tiny or near-complete graphs may come back short.
    @raise Invalid_argument on a negative size. *)

val schedule :
  Broker_graph.Graph.t ->
  brokers:int array ->
  propagation ->
  event array ->
  event array
(** Map origin-time events to delivery-time events under the given
    propagation model. Hop counts for {!Bgp_like} are computed on the
    given (pre-update) graph; endpoints no broker can reach pay a
    pessimistic [n] hops. *)
