(** X8 (reproduction extension): path-cache resilience under broker churn.

    Reproduces the consistent-hashing-vs-static-assignment gap of the
    KoordeDHT churn experiment, for dominated paths instead of URLs: a
    three-phase churn schedule (all up → the m = k/8 lowest-ranked brokers
    down → all up) over Zipf-skewed (src, dst) pairs, replayed on the same
    request stream for every {!Broker_sim.Shard_cache} strategy. Four
    tables: per-phase hit rate / outcome counts, owner remap fraction
    across the crash, the same schedule through the full flow-level
    simulator ({!Broker_sim.Faults.phased}), and an X7-style thinned
    independent-churn rate sweep.

    Expected shape (asserted by the tests): warm-phase hit rates are
    identical across strategies; through the churn and recovered phases
    [Ring] holds a strictly higher hit rate than [Modulo]; the remap
    fraction is ≈ m/n for [Ring] vs ≈ 1 for [Modulo]. *)

val strategies : (string * Broker_sim.Shard_cache.strategy) list [@@brokercheck.test_only]
(** [flush], [modulo], [ring] (with {!Broker_sim.Shard_cache.default_vnodes}),
    in report order. *)

type phase_row = {
  strategy : string;
  phase : string;  (** ["warm"], ["churn"] or ["recovered"] *)
  lookups : int;
  hit_rate : float;  (** (hits + degraded serves) / lookups, this phase *)
  served_degraded : int;
  repaired_lazily : int;
  recomputed : int;
}

type remap_row = {
  strategy : string;
  shards : int;  (** alliance size k *)
  crashed_shards : int;  (** m brokers taken down by the churn phase *)
  remap_fraction : float;
      (** owner changes over a fixed uniform key sample; [nan] for flush,
          which has no owner function *)
}

type sim_row = {
  strategy : string;
  delivered : float;
  sim_hit_rate : float;
  sim_served_degraded : int;
  sim_repaired : int;
  sim_recomputed : int;
  evicted : int;
  flushed : int;
}

val phase_names : string list [@@brokercheck.test_only]
(** [["warm"; "churn"; "recovered"]], in schedule order. *)

val compute :
  ?requests_per_phase:int -> Ctx.t -> phase_row list * remap_row list [@@brokercheck.test_only]
(** Direct cache exercise (no simulator): per-strategy phase rows in
    {!phase_names} order, grouped by strategy in {!strategies} order, plus
    one remap row per strategy. Every strategy replays the identical
    request stream. Deterministic in the context's seed. *)

val compute_sim : ?n_sessions:int -> Ctx.t -> sim_row list [@@brokercheck.test_only]
(** The same three-phase schedule through {!Broker_sim.Simulator.run}
    (one run per strategy, identical sessions and fault stream). *)

val report : Ctx.t -> Broker_report.Report.t
