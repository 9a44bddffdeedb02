(** Deterministic fork-join parallelism over OCaml 5 domains.

    The connectivity estimator runs hundreds of independent BFS traversals
    over an immutable graph; this module fans those out over domains.
    Work is split by stride and the per-domain accumulators are merged in
    a fixed order, so results are bit-identical to the sequential run
    regardless of scheduling whenever the per-item accumulation commutes.

    The domain budget comes from [Domain.recommended_domain_count],
    clamped to 8 and overridable with the [REPRO_DOMAINS] environment
    variable (set [REPRO_DOMAINS=1] to force sequential execution). *)

val domain_count : unit -> int
(** The default domain budget. Unset or empty [REPRO_DOMAINS] means
    [min 8 (Domain.recommended_domain_count ())].
    @raise Invalid_argument
      ["REPRO_DOMAINS: expected an integer >= 1, got \"…\""] for any
      other value that is not a positive integer. *)

val strided :
  ?domains:int ->
  n:int ->
  worker:(start:int -> step:int -> 'acc) ->
  merge:('acc -> 'acc -> 'acc) ->
  'acc ->
  'acc
(** [strided ~n ~worker ~merge init] splits [0..n-1] across [domains]
    with interleaved assignment: domain [i] of [k] processes items
    [i, i+k, i+2k, ...] in parallel, and the results fold with [merge] in
    stride order starting from [init]. Runs sequentially, as
    [worker ~start:0 ~step:1], when [n] is small or only one domain is
    available. Striding balances per-item cost that is very uneven — BFS
    sources whose traversal size varies by orders of magnitude.

    Which items land in which accumulator depends on the domain count,
    so bit-identical results across [REPRO_DOMAINS] settings require the
    per-item accumulation to be commutative and associative — integer
    counters and histograms qualify, float sums do not. [worker] must
    not mutate shared state. *)
