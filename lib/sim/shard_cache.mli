(** Churn-resilient sharded cache for dominated paths.

    The simulator caches the hop-shortest B-dominated path per distinct
    [(src, dst)] pair. Under broker churn the cache policy is the whole
    game: a crash that flushes every entry riding the dead broker
    degenerates sustained churn into recomputing paths from scratch. This
    module makes the key→shard assignment pluggable, with shards being the
    brokers themselves:

    - {!Flush} — one global store plus a per-broker reverse index; a crash
      evicts exactly the keys whose path rides the dead broker, a recovery
      flushes every key computed while any broker was down. This is the
      historical simulator behavior and the default.
    - {!Modulo} — static assignment [owner = live.(h mod n_live)]: any
      change in the live-shard count remaps ≈ (n−1)/n of the keys (the
      SimpleHash baseline of the KoordeDHT churn experiment).
    - {!Ring} — consistent hashing: each live shard owns the arcs of its
      [vnodes] ring points, so one crash/recover remaps only ≈ 1/n of the
      keys. Crashed shards lose their own entries (the broker's memory
      died with it); everything else survives.

    Sharded lookups degrade gracefully instead of trusting stale entries:
    a hit is validated against current liveness, an invalid path triggers
    a lazy repair (recompute, which finds a dominated path avoiding the
    down brokers), and a valid path that merely rides an outage is served
    degraded. Outcomes are tallied in {!stats} (plain ints, always on) and
    mirrored as brokerscope counters ([sim.cache.*], active only when
    {!Broker_obs.Control.enabled}).

    Determinism: key and ring-point placement hash through a seeded
    splitmix64 on the key ints — never [Hashtbl.hash] (brokercheck R9) —
    so owners are reproducible across runs, processes and domain counts. *)

type strategy =
  | Flush  (** global store, reverse-index eviction, recovery flush *)
  | Modulo  (** static [h mod n_live] assignment — remaps almost all keys *)
  | Ring of { vnodes : int }
      (** consistent hashing with [vnodes] virtual nodes per shard *)

val default_vnodes : int
(** Virtual nodes per shard used by {!strategy_of_string} and the CLI
    default (64). *)

val strategy_name : strategy -> string
(** ["flush"], ["modulo"] or ["ring"]. *)

val strategy_of_string : ?vnodes:int -> string -> (strategy, string) result
(** Parse a CLI strategy name (case-insensitive). [~vnodes] (default
    {!default_vnodes}) applies to ["ring"]. Unknown names and [vnodes < 1]
    are [Error] with a usable message. *)

type stats = {
  lookups : int;
  hits : int;  (** clean hits: entry valid and untouched by any outage *)
  served_degraded : int;
      (** valid hits that ride a current outage (or were computed under
          one): served, not treated as misses *)
  repaired_lazily : int;
      (** invalidated hits healed by recomputing a live dominated path *)
  recomputed : int;
      (** full recomputes: cold misses, failed repairs, post-outage
          refreshes of degraded entries *)
  evicted : int;  (** keys lost to crash eviction / shard purge *)
  flushed : int;  (** keys dropped by the {!Flush} recovery flush *)
}

val stats_equal : stats -> stats -> bool
(** Field-wise equality. *)

type t

val create :
  ?strategy:strategy -> ?seed:int -> n:int -> shards:int array -> unit -> t
(** A cache over vertices [0..n-1] whose shards are [shards] (the broker
    set; deduplicated). All shards start live. Default strategy {!Flush},
    default seed 0.
    @raise Invalid_argument on [Ring] with [vnodes < 1], or a shard id
    outside [0..n-1]. *)

val strategy : t -> strategy

val find :
  t -> compute:(unit -> int array option) -> int -> int -> int array option
(** [find t ~compute src dst] is the cached dominated path for the pair,
    calling [compute] on a miss (or repair/refresh) and storing the
    result. [compute] must respect current liveness — it is the
    [find_dominated_path] closure of the caller. [None] results (no
    dominated path) are cached too. *)

val crash : t -> int -> unit
(** Shard [b] went down. {!Flush}: evict exactly the keys riding [b].
    Sharded: purge [b]'s own table, then compact — every live shard sheds
    the keys the new assignment no longer maps to it. Removing a ring
    shard never moves a key between two live shards, so {!Ring} sheds
    nothing extra; a {!Modulo} live-count change reassigns ≈ (n−1)/n of
    the keys. Surviving entries are validated lazily on hit. No-op for an
    unknown or already-down shard. *)

val recover : t -> int -> unit
(** Shard [b] came back (empty — its memory died with it). {!Flush}:
    additionally drop every key computed while any broker was down, as
    the historical simulator did on each full recovery. Sharded: compact
    again — {!Ring} hands ≈ 1/n of the keys back to the returning shard,
    {!Modulo} reshuffles almost everything a second time. No-op for an
    unknown or already-live shard. *)

val invalidate_all : t -> unit
(** Drop every cached entry under any strategy, counting them as evicted.
    Liveness flags are untouched. This is the topology-update hammer: an
    announce/withdraw can reroute any pair, so no cached path survives. *)

val owner : t -> int -> int -> int option
(** Current owning shard of the pair, [None] for {!Flush} or when no
    shard is live. Deterministic; the remap-fraction measurements of X8
    and the qcheck bound sample this across a crash. *)

val live_shards : t -> int
(** Number of currently-live shards. *)

val size : t -> int
(** Total cached entries across shards. *)

val stats : t -> stats
(** Cumulative outcome tallies since {!create}. *)

val invariant_ok : t -> bool
(** Internal consistency, for tests. {!Flush}: every reverse-index key is
    present in the store and its cached path rides the indexing broker;
    every degraded key is present in the store. Sharded: down shards hold
    no entries, every live shard holds only keys it currently owns, and
    the ring/live views match the down flags. *)
