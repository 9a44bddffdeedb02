(** Explicit construction of broker-mediated end-to-end paths.

    The brokerage framework carries traffic from a source AS into the
    broker mesh at the first hop, across brokers (hiring a non-broker
    "employee" AS where two brokers lack a direct link — the Fig. 6
    business model), and out to the destination at the last hop. This
    module materializes such a path and itemizes who gets paid. *)

type segment =
  | Ingress of int  (** source → first broker *)
  | Broker_hop of int * int  (** broker → broker direct link *)
  | Employee_hop of int * int * int  (** broker → hired non-broker → broker *)
  | Egress of int  (** last broker → destination *)

type stitched = {
  path : int array;  (** full vertex path, source to destination *)
  segments : segment list;
  employees : int list;  (** distinct hired non-broker ASes *)
  hops : int;
}

val stitch :
  Broker_graph.Graph.t ->
  is_broker:(int -> bool) ->
  src:int ->
  dst:int ->
  stitched option
(** Shortest B-dominated path decorated with its business segments. [None]
    when no dominated path exists. Adjacent [src]-[dst] pairs where either
    endpoint is a broker yield a direct 1-hop result. *)
