(** Algorithm 2 of the paper: the approximation algorithm for the MCBG
    problem on an (α,β)-graph, with ratio [(1 - 1/e) / θ] where
    [θ = 2⌈β/2⌉] (Theorem 3).

    The budget [k] is split: [x* = ⌊(k-1)/⌈β/2⌉⌋ + 1] "coverage" brokers
    are chosen by the greedy MCB Algorithm 1; the remainder buys
    "connectors" placed along shortest paths from a root coverage broker to
    every other coverage broker, so each such path is B-dominated — making
    the whole broker set mutually reachable over dominated paths and thereby
    satisfying the MCBG constraint for all covered pairs. Among candidate
    roots the one needing the fewest connectors wins (lines 2–11 of
    Algorithm 2). Left-over budget is spent on further greedy coverage
    picks. *)

type result = {
  brokers : int array;  (** the full broker set B *)
  coverage_brokers : int array;  (** B′, in greedy order *)
  connectors : int array;  (** B″ *)
  x_star : int;
  theta : int;
  root : int;  (** chosen root coverage broker *)
}

val run :
  ?all_roots:bool -> Broker_graph.Graph.t -> k:int -> beta:int -> result
(** [all_roots] (default [true]) tries every coverage broker as root as in
    the paper's pseudocode; [false] tries only the first (highest-gain)
    one — a practical shortcut for very large k with near-identical output
    (see bench [ablation_beta]).
    @raise Invalid_argument when [k < 1] or [beta < 1]. *)

val x_star : k:int -> beta:int -> int [@@brokercheck.test_only]
(** The coverage-broker budget for a given [k] and [beta]. *)

val theta : beta:int -> int [@@brokercheck.test_only]
(** [θ = β] for even β, [β + 1] for odd — the approximation-ratio
    denominator of Theorem 3. *)

val guarantees_dominating_paths : Broker_graph.Graph.t -> int array -> bool
(** Check the MCBG feasibility condition on an output: between every pair of
    covered vertices there is a B-dominating path (i.e. they are connected
    in the B-restricted graph). Used by tests. *)
