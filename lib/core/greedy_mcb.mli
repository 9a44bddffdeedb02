(** Algorithm 1 of the paper: the greedy [(1 - 1/e)]-approximation for the
    Maximum Coverage with broker set (MCB) problem.

    Two implementations with identical outputs (ties broken by vertex id):

    - [naive]: re-evaluates every vertex each round, O(k (|V| + |E|)) with a
      large constant — kept as the reference for the CELF ablation;
    - [celf]: lazy greedy. Marginal gains only shrink as the set grows
      (submodularity, Lemma 3), so a stale max-heap entry whose recomputed
      gain still tops the heap is the true argmax. Orders of magnitude fewer
      gain evaluations in practice. *)

val naive : Broker_graph.Graph.t -> k:int -> int array
(** Brokers in selection order. Stops early when coverage is complete. *)

val celf : Broker_graph.Graph.t -> k:int -> int array
(** Same output as [naive]. *)

val celf_into : Coverage.t -> k:int -> unit [@@brokercheck.test_only]
(** Run CELF on an existing coverage state until it holds [k] brokers (or
    coverage is complete), e.g. to top up Algorithm 2's budget remainder. *)

val gain_evaluations : unit -> int
(** Number of marginal-gain evaluations performed by the last [naive]/[celf]
    call on this domain — the ablation's work metric. *)
