(** Deterministic pseudo-random number generation.

    All stochastic components of the reproduction (topology generators,
    sampling estimators, Monte-Carlo Shapley values, ...) draw from this
    module rather than [Stdlib.Random] so that every experiment is exactly
    reproducible from its seed.

    The generator is xoshiro256** seeded through splitmix64, following the
    reference implementation of Blackman and Vigna. *)

type t
(** Mutable generator state: 32 bytes, read and written unboxed, so
    {!int} allocates nothing. *)

val create : int -> t
(** [create seed] builds a fresh generator deterministically from [seed]. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t]; streams of the
    parent and child are (statistically) independent. *)

val bits64 : t -> int64 [@@brokercheck.test_only]
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val exponential : t -> float -> float
(** [exponential t lambda] samples Exp(lambda). *)

val pareto : t -> alpha:float -> x_min:float -> float
(** Pareto(alpha, x_min) sample; used for heavy-tailed degree targets. *)

val geometric : t -> float -> int
(** [geometric t p] is the number of failures before the first success of a
    Bernoulli(p) process ([p] in (0,1]). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniform permutation of [0..n-1]. *)
