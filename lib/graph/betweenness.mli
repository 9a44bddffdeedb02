(** Approximate betweenness centrality (Brandes' algorithm over sampled
    source vertices).

    Not part of the paper's baseline set, but the natural "next" centrality
    after degree and PageRank: the reproduction adds a Betweenness-Based
    broker selection to the algorithm comparison to test whether
    path-centrality escapes the marginal effect the paper observes for
    DB/PRB (it does not — see the extension experiment). Sampled Brandes is
    an unbiased estimator of betweenness up to the [n/samples] factor,
    which is irrelevant for ranking. *)

val compute :
  ?samples:int -> rng:Broker_util.Xrandom.t -> Graph.t -> float array [@@brokercheck.test_only]
(** Estimated betweenness per vertex from [samples] (default 256) sampled
    single-source shortest-path DAGs. Exact (full Brandes) when the graph
    has no more than [samples] vertices. *)

val top : ?samples:int -> rng:Broker_util.Xrandom.t -> Graph.t -> k:int -> int array
(** The [k] highest-betweenness vertices, best first (ties by id). *)
