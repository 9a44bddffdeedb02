(** Structural graph metrics used to validate the synthetic topologies
    against the paper's dataset (Section 3) and to instantiate the
    (α,β)-graph property (Definition 2). *)

val average_degree : Graph.t -> float

val power_law_exponent : Graph.t -> float
(** Maximum-likelihood estimate of the scale-free exponent over degrees >= 2
    (Clauset–Shalizi–Newman discrete approximation). Returns [nan] when
    degenerate. *)

val clustering_coefficient : ?samples:int -> rng:Broker_util.Xrandom.t -> Graph.t -> float
(** Mean local clustering coefficient, estimated on [samples] random vertices
    of degree >= 2 (default 2000). Exact when the graph has fewer qualifying
    vertices than [samples]. *)

val hop_distance_sample :
  rng:Broker_util.Xrandom.t -> sources:int -> Graph.t -> int array
(** Pooled hop distances from [sources] random source vertices to every other
    reachable vertex — the raw material of the (α,β) estimate and the F(l)
    path-length distribution. *)

val degree_assortativity : Graph.t -> float
(** Pearson correlation of endpoint degrees over edges (negative on the
    Internet AS graph). *)
