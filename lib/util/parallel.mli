(** Deterministic fork-join parallelism over OCaml 5 domains.

    The connectivity estimator runs hundreds of independent BFS traversals
    over an immutable graph; this module fans those out over domains.
    Work is split into fixed contiguous chunks and the per-chunk
    accumulators are merged in chunk order, so results are bit-identical
    to the sequential run regardless of scheduling.

    The domain budget comes from [Domain.recommended_domain_count],
    clamped to 8 and overridable with the [REPRO_DOMAINS] environment
    variable (set [REPRO_DOMAINS=1] to force sequential execution). *)

val domain_count : unit -> int
(** The default domain budget. Unset or empty [REPRO_DOMAINS] means
    [min 8 (Domain.recommended_domain_count ())].
    @raise Invalid_argument
      ["REPRO_DOMAINS: expected an integer >= 1, got \"…\""] for any
      other value that is not a positive integer. *)

val chunked :
  ?domains:int ->
  n:int ->
  worker:(lo:int -> hi:int -> 'acc) ->
  merge:('acc -> 'acc -> 'acc) ->
  'acc ->
  'acc
(** [chunked ~n ~worker ~merge init] partitions [0..n-1] into [domains]
    contiguous chunks, runs [worker ~lo ~hi] on each (half-open ranges) in
    parallel, and folds the results with [merge] in chunk order starting
    from [init]. [worker] must not mutate shared state. Runs sequentially
    when [n] is small or only one domain is available. *)

val strided :
  ?domains:int ->
  n:int ->
  worker:(start:int -> step:int -> 'acc) ->
  merge:('acc -> 'acc -> 'acc) ->
  'acc ->
  'acc
(** [strided ~n ~worker ~merge init] is {!chunked} with interleaved
    assignment: domain [i] of [k] processes items [i, i+k, i+2k, ...] (the
    sequential fallback is [worker ~start:0 ~step:1]), and results merge in
    stride order. Use it when per-item cost is very uneven — e.g. BFS
    sources whose traversal size varies by orders of magnitude, where
    contiguous chunks can leave most domains idle behind one hot chunk.

    Striding changes which items land in which accumulator, so (unlike
    {!chunked}) bit-identical results across [REPRO_DOMAINS] settings
    additionally require the per-item accumulation to be commutative and
    associative — integer counters and histograms qualify, float sums do
    not. [worker] must not mutate shared state. *)
