(** The paper's evaluation metric: l-hop E2E connectivity under a broker set.

    For a broker set [B], the usable graph keeps the edge [(u,v)] iff
    [u ∈ B] or [v ∈ B] (the "B_A ⊙ A" operator of Section 5.2); any path in
    that graph is B-dominated. The l-hop E2E connectivity is the fraction of
    ordered vertex pairs [(u,v)], [u ≠ v], whose shortest such path has at
    most [l] hops; the limit for large [l] is the saturated E2E
    connectivity (Section 5.2, Remark).

    Exact evaluation runs one filtered BFS per source ([O(|V|·(|V|+|E|))]);
    at the paper's 52k-node scale we use the unbiased source-sampled
    estimator instead (a uniform subset of sources, each contributing its
    exact row of the distance matrix). *)

type curve = {
  l_max : int;
  per_hop : float array;
      (** index [l] (0 .. l_max): fraction of ordered pairs with a dominated
          path of at most [l] hops; [per_hop.(0) = 0]. *)
  saturated : float;  (** fraction with any dominated path *)
}

val value_at : curve -> int -> float
(** [value_at c l]: connectivity at hop bound [l], clamped to [saturated]
    beyond [l_max]. *)

val unrestricted : (int -> bool)
(** Predicate allowing every vertex — evaluates the raw topology ("free-path
    selection" rows of Tables 3/4). *)

val of_brokers : n:int -> int array -> (int -> bool)
(** Membership predicate of a broker array over universe size [n]. *)

val exact :
  ?l_max:int -> Broker_graph.Graph.t -> is_broker:(int -> bool) -> curve
(** All-pairs evaluation; [l_max] defaults to 10. *)

val sampled :
  ?l_max:int ->
  ?source_set:int array ->
  rng:Broker_util.Xrandom.t ->
  sources:int ->
  Broker_graph.Graph.t ->
  is_broker:(int -> bool) ->
  curve
(** Source-sampled estimator; [sources] are drawn without replacement,
    unless [source_set] pins them explicitly (common random numbers when
    comparing broker sets). *)

val saturated_sampled :
  rng:Broker_util.Xrandom.t ->
  sources:int ->
  Broker_graph.Graph.t ->
  is_broker:(int -> bool) ->
  float
(** Saturated connectivity only (cheaper bookkeeping, same BFS cost). *)

val eval_sources :
  ?l_max:int ->
  Broker_graph.Graph.t ->
  is_broker:(int -> bool) ->
  int array ->
  curve
(** Evaluation over an explicit source array. All evaluators (including
    this one) run on the bit-parallel MS-BFS engine: the broker-dominated
    subgraph is materialized once per call ({!Broker_graph.Projected}),
    sources are packed {!Broker_graph.Msbfs.lanes} per machine word and
    each batch is settled by word-parallel sweeps on a per-domain
    reusable workspace ({!Broker_graph.Msbfs.run}), and batches are
    strided across OCaml 5 domains ({!Broker_util.Parallel.strided}).
    Batch composition depends only on the source order and every
    accumulated quantity is an integer count, so results are
    deterministic and bit-identical to a sequential run (and to
    {!eval_sources_reference}) for any [REPRO_DOMAINS]. *)

val eval_sources_reference :
  ?l_max:int ->
  Broker_graph.Graph.t ->
  is_broker:(int -> bool) ->
  int array ->
  curve
(** The pre-engine generic path — one predicate-filtered BFS per source
    over the unprojected graph. Slow; kept as the reference oracle the
    qcheck equivalence suite and the [connectivity/legacy] bench kernel
    compare the engine against. *)

val edge_ok : is_broker:(int -> bool) -> int -> int -> bool
(** The dominated-edge predicate itself, for composing with other
    traversals. *)

val curve_of_counts :
  l_max:int -> hist:int array -> reached:int -> total:int -> curve
(** Fold integer tallies into a {!curve}: [hist.(l)] pairs first reached
    at hop [l] (index 0 unused), [reached] pairs reached at any depth,
    [total] ordered pairs considered. This is the single float-math
    path every evaluator shares — external incremental evaluators (see
    [Incremental]) use it so their curves are bitwise-comparable to
    {!eval_sources}. @raise Invalid_argument when [hist] is shorter
    than [l_max + 1]. *)
