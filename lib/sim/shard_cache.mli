(** Churn-resilient sharded cache for dominated paths.

    The simulator caches the hop-shortest B-dominated path per distinct
    [(src, dst)] pair. Under broker churn the cache policy is the whole
    game: a crash that flushes every entry riding the dead broker
    degenerates sustained churn into recomputing paths from scratch. Every
    strategy keeps its entries in one table per owner slot; they differ
    only in which slot owns a key and in what a crash or a recovery drops:

    - {!Flush} — one table that no crash takes down. A crash evicts
      exactly the entries whose path rides the dead broker; each recovery
      drops every entry computed while any broker was down. This is the
      historical simulator behavior and the default.
    - {!Modulo} — one table per shard (broker), static assignment
      [owner = live.(h mod n_live)]: any change in the live-shard count
      remaps ≈ (n−1)/n of the keys (the SimpleHash baseline of the
      KoordeDHT churn experiment).
    - {!Ring} — consistent hashing: each live shard owns the arcs of its
      [vnodes] ring points, so one crash/recover remaps only ≈ 1/n of the
      keys. Crashed shards lose their own entries (the broker's memory
      died with it); everything else survives.

    Lookups degrade gracefully instead of trusting stale entries: a hit is
    validated against current liveness, an invalid path triggers a lazy
    repair (recompute, which finds a dominated path avoiding the down
    brokers), and a valid path that merely rides an outage is served
    degraded. {!Flush}'s eviction keeps every entry valid and drops every
    degraded one once the last outage clears, so its hits never repair or
    refresh. It also equals recomputing: a crash only takes dominated arcs
    away, and the search returns the canonical path
    ({!Broker_core.Dominating.find_dominated_path_view}), which a removal
    that leaves every arc of it present and dominated does not change. So
    each path {!Flush} keeps after a crash is the one a fresh search would
    return, and a kept [None] stays unroutable. Outcomes are tallied in
    {!stats} (plain ints, always on) and mirrored as brokerscope counters
    ([sim.cache.*], active only when {!Broker_obs.Control.enabled}).

    Each table is keyed by the int [src * n + dst] under open addressing
    with linear probing, deletes by backward shift and is cleared in
    place, so a hit allocates nothing and no crash or recovery rebuilds a
    table. Liveness is one byte per vertex. A ring lookup starts from a
    bucket index over the top bits of the ring position instead of a
    binary search over every ring point.

    Determinism: key and ring-point placement hash through a seeded
    splitmix64 on the key ints — never [Hashtbl.hash] (brokercheck R9) —
    so owners are reproducible across runs, processes and domain counts.
    No outcome depends on where an entry sits in its table. *)

type strategy =
  | Flush  (** one table: evict riders on crash, degraded on recovery *)
  | Modulo  (** static [h mod n_live] assignment — remaps almost all keys *)
  | Ring of { vnodes : int }
      (** consistent hashing with [vnodes] virtual nodes per shard *)

val default_vnodes : int
(** Virtual nodes per shard of the CLI's [ring] strategy (64). *)

val strategy_name : strategy -> string
(** ["flush"], ["modulo"] or ["ring"]. *)

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

val find :
  t -> compute:(unit -> int array option) -> int -> int -> int array option
(** [find t ~compute src dst] is the cached dominated path for the pair,
    calling [compute] on a miss (or repair/refresh) and storing the
    result. [compute] must respect current liveness — it is the
    [find_dominated_path] closure of the caller — and must not call back
    into [t]. [None] results (no dominated path) are cached too. A caller
    that looks up many pairs builds one [compute] that reads the pair
    from its own state, rather than a closure per lookup. *)

val crash : t -> int -> unit
(** Shard [b] went down. {!Flush}: evict exactly the entries whose path
    rides [b], in one pass over its table. {!Modulo} and {!Ring}: drop
    [b]'s own table. {!Modulo} then compacts — every live shard sheds the
    keys the new assignment no longer maps to it, ≈ (n−1)/n of them.
    Removing a ring shard never moves a key between two live shards, so
    {!Ring} evicts exactly [b]'s entries and skips the pass. Surviving
    entries are validated on hit. No-op for an unknown or already-down
    shard. *)

val recover : t -> int -> unit
(** Shard [b] came back. {!Flush}: drop every entry computed while any
    broker was down, as the historical simulator did on each per-broker
    recovery. {!Modulo} and {!Ring}: [b] returns empty (its memory died
    with it) and both compact again — {!Ring} hands ≈ 1/n of the keys back
    to the returning shard, {!Modulo} reshuffles almost everything a
    second time. No-op for an unknown or already-live shard. *)

val invalidate_all : t -> unit
(** Drop every cached entry under any strategy, counting them as evicted,
    clearing each table in place (its capacity stays). Liveness flags are
    untouched. This is the topology-update hammer: an announce/withdraw
    can reroute any pair, so no cached path survives. *)

val owner : t -> int -> int -> int option
(** Current owning shard of the pair, [None] for {!Flush} or when no
    shard is live. Deterministic; the remap-fraction measurements of X8
    and the qcheck bound sample this across a crash. *)

val size : t -> int [@@brokercheck.test_only]
(** Total cached entries across shards. *)

val stats : t -> stats
(** Cumulative outcome tallies since {!create}. *)

val invariant_ok : t -> bool [@@brokercheck.test_only]
(** Internal consistency, for tests, over every table: each holds only
    keys it currently owns, every key sits where a probe for it lands,
    the table counts its keys and is at most half full, a down shard's
    table is empty, and the live and ring views match the down flags. For {!Flush} also the two facts
    that make its hits exact without repair: every cached path is valid
    under current liveness, and no entry is degraded while no broker is
    down. *)
