(** Bit-parallel multi-source BFS (MS-BFS): the one frontier engine for
    sweeps of a shared graph.

    The connectivity evaluators, the greedy gain probes, the incremental
    tracker and the traffic-weighted rows all run one BFS per source
    over one shared (projected) graph. Up to {!lanes} sources are packed
    one per bit into a machine word per vertex, and a single sweep
    advances *all* of them — the frontier word of a vertex is AND-NOT-ed
    against each neighbor's [seen] word and the surviving bits OR-ed in,
    so a 192-source evaluation costs a handful of word-parallel sweeps
    instead of 192 traversals.

    Word layout: lane [b] of a batch is the BFS rooted at
    [sources.(lo + b)]; bit [b] of a vertex's [seen] word says lane
    [b]'s traversal has settled it, and the depth at which a bit first
    appears is exactly that lane's BFS distance (all lanes advance in
    lock step, so first arrival = shortest path). Per-level totals are
    popcounts of the newly settled words — no per-bit loop, no per-lane
    distance array.

    Sweeps switch between top-down frontier expansion and bottom-up
    probing (Beamer's direction-optimizing BFS). Both directions settle
    identical bits at identical depths, so every query below is
    independent of the heuristic — which keeps batched evaluations
    bitwise identical to the {!Bfs} closure traversals and the generic
    reference implementations. *)

val lanes : int
(** Sources packed per word: 63 ({!Broker_util.Bitset.bits_per_word} —
    OCaml native ints). *)

type workspace
(** Reusable scratch for {!run} (word arrays, stamps, queues). Runs
    reuse the arrays with epoch/tick bumps instead of clearing them, so
    the marginal cost of a batch is exactly its sweeps. Not thread-safe:
    confine each workspace to one domain. *)

val workspace : ?per_lane:bool -> unit -> workspace
(** An empty workspace; arrays are sized lazily by the first {!run} (and
    regrown if a later run presents a larger graph). With [~per_lane:true]
    (default [false]) every run also tallies {!lane_level}: one
    positional popcount of each level's newly settled words, a cost the
    batch-total callers ({!level_pairs}) never pay. *)

val run :
  workspace -> Graph.t -> ?max_depth:int -> int array -> lo:int -> len:int ->
  unit
(** [run ws g sources ~lo ~len] traverses [g] from the batch
    [sources.(lo) .. sources.(lo + len - 1)], one lane each, leaving the
    results in [ws]. [max_depth] (default unbounded) stops expanding
    beyond that many hops. Duplicate sources are distinct lanes.
    Queries below refer to the most recent run and are invalidated by
    the next one.
    @raise Invalid_argument when [len] is outside [1 .. lanes], the
    range escapes [sources], or a source is outside [0 .. n-1]. *)

val run_view :
  workspace -> View.t -> ?max_depth:int -> ?watch:int array -> int array ->
  lo:int -> len:int -> unit
(** {!run} over a {!View.t} — the same sweeps reading through the
    base-or-overlay segment selector, so dynamic-topology callers
    traverse a {!Delta} overlay without compacting it first.

    [watch] (default empty) lists vertices whose per-lane distances the
    run records for {!watch_distance}; duplicates are allowed. The
    sweep reads them once per level, never per arc, at a cost of one
    stamp test per watched vertex and level plus one step per (lane,
    watched vertex) pair settled. The array is kept by the workspace
    until the next run and must not be mutated in between.
    @raise Invalid_argument also when a watched vertex is outside
    [0 .. n-1]; the workspace is then unchanged. *)

val batch_lanes : workspace -> int [@@brokercheck.test_only]
(** Lanes of the last run ([len]). *)

val max_level : workspace -> int
(** Deepest level any lane settled in the last run (0 when every source
    settled only itself). *)

val level_pairs : workspace -> int -> int
(** [level_pairs ws d]: (lane, vertex) pairs settled at depth exactly
    [d], summed over the batch — [level_pairs ws 0 = batch_lanes ws],
    and for [d >= 1] the number of entries equal to [d] over the
    lanes' {!Bfs.distances} arrays. Valid for [d] in
    [0 .. max_level ws].
    @raise Invalid_argument outside that range. *)

val lane_level : workspace -> int -> int -> int
(** [lane_level ws b d]: vertices lane [b] settled at depth exactly [d]
    in the last run — the entries equal to [d] in {!Bfs.distances} from
    lane [b]'s source, so summing it over the lanes gives
    {!level_pairs}. [1] at [d = 0].
    @raise Invalid_argument unless the workspace was created with
    [~per_lane:true], [b] is in [0 .. batch_lanes ws - 1] and [d] in
    [0 .. max_level ws]. *)

val reached_pairs : workspace -> int [@@brokercheck.test_only]
(** Total (lane, vertex) pairs settled at depth [>= 1] — the batched
    sum of per-source reached counts, sources themselves excluded. *)

val watch_distance : workspace -> int -> int -> int
(** [watch_distance ws i b]: the distance from lane [b]'s source to
    the [i]-th watched vertex of the last run — {!Bfs.distances} from
    that source, read at [watch.(i)] — or [-1] when lane [b] did not
    reach it (within [max_depth]).
    @raise Invalid_argument unless [i] indexes the last run's watch
    list and [b] is in [0 .. batch_lanes ws - 1]. *)

val settled_bits : workspace -> int -> int
(** [settled_bits ws v]: the lanes whose traversal settled [v] (any
    depth, source included), as a bit word; [0] when untouched. The
    word-level view that per-lane sums over vertices
    ([Traffic.weighted_saturated]) and tests consume directly.
    @raise Invalid_argument when [v] is outside the workspace. *)

val lane_counts_into : workspace -> keep:(int -> bool) -> int array -> unit
(** [lane_counts_into ws ~keep out] sets [out.(b)], for each lane [b] of
    the last run, to the number of vertices lane [b] settled (any depth,
    source included) that satisfy [keep] — the per-lane tally behind
    batched marginal-gain probes (CELF/MaxSG seed their heaps with
    [keep] = "not yet covered"). Entries beyond the batch are left
    untouched. Cost: one [keep] test per distinct settled vertex plus
    one bit-extraction step per settled (lane, vertex) pair.
    @raise Invalid_argument when [out] is shorter than the batch. *)
