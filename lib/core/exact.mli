(** Exact (exponential-time) optima for tiny instances.

    The MCB/MCBG problems are NP-hard (Lemmas 1–2); these brute-force
    solvers make the approximation guarantees *testable*: on graphs small
    enough to enumerate, the greedy Algorithm 1 must achieve at least
    [(1 - 1/e)·OPT] (Lemma 4) and Algorithm 2 at least
    [(1 - 1/e)/θ·OPT] (Theorem 3). The ablation experiment measures the
    empirical ratios, which are far better than the worst-case bounds. *)

val mcb_opt : Broker_graph.Graph.t -> k:int -> int array * int
(** Optimal MCB solution: a coverage-maximizing broker set of size <= k and
    its coverage value [f(B)]. Enumerates subsets with pruning; intended
    for [n <= ~25] and small [k].
    @raise Invalid_argument when [n > 25]. *)

val mcbg_opt : Broker_graph.Graph.t -> k:int -> int array * int [@@brokercheck.test_only]
(** Optimal MCBG solution: additionally requires the B-dominating path
    guarantee ({!Mcbg.guarantees_dominating_paths}) among covered nodes. *)
