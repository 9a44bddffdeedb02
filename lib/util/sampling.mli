(** Sampling primitives for the estimators (source-sampled connectivity,
    Monte-Carlo Shapley values, topology generation). *)

val without_replacement : Xrandom.t -> n:int -> k:int -> int array
(** [without_replacement rng ~n ~k] draws [k] distinct integers from
    [0..n-1], in increasing order (Floyd's algorithm).
    @raise Invalid_argument if [k > n] or either is negative. *)

val weighted_alias : float array -> Xrandom.t -> int
(** [weighted_alias weights] precomputes Walker alias tables; the returned
    closure draws indices in O(1). Suitable when drawing many samples from the
    same distribution (preferential-attachment topology generation). *)
