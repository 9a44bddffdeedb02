(** Sampling primitives for the estimators (source-sampled connectivity,
    Monte-Carlo Shapley values, topology generation). *)

val without_replacement : Xrandom.t -> n:int -> k:int -> int array
(** [without_replacement rng ~n ~k] draws [k] distinct integers from
    [0..n-1], in increasing order (Floyd's algorithm).
    @raise Invalid_argument if [k > n] or either is negative. *)

val weighted_index : Xrandom.t -> float array -> int [@@brokercheck.test_only]
(** Draw an index proportionally to the (non-negative) weights.
    @raise Invalid_argument if all weights are zero or any is negative. *)

val weighted_alias : float array -> Xrandom.t -> int
(** [weighted_alias weights] precomputes Walker alias tables; the returned
    closure draws indices in O(1). Suitable when drawing many samples from the
    same distribution (preferential-attachment topology generation). *)
