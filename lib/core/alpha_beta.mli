(** (α,β)-graph estimation (Definition 2 of the paper):
    a graph is an (α,β)-graph when
    [Prob(d(u,v) <= β) >= α] over uniform vertex pairs, with β far below the
    diameter. The paper's AS topology is a (0.99, 4)-graph; Algorithm 2's
    split between coverage brokers and connectors is driven by β. *)

type estimate = {
  beta : int;
  alpha : float;  (** measured [Prob(d <= beta)] *)
  cdf : float array;  (** index l: [Prob(d <= l)], up to the array length *)
}

val estimate :
  rng:Broker_util.Xrandom.t ->
  sources:int ->
  Broker_graph.Graph.t ->
  alpha:float ->
  estimate
(** Smallest [beta] (up to 16) whose measured probability reaches
    [alpha]; when none does, [beta = 16] with its measured alpha.
    Distances are pooled from [sources] BFS runs (reachable pairs only,
    matching the paper's use on the giant component). *)
