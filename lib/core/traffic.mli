(** Traffic-weighted connectivity (reproduction extension).

    The paper counts E2E *connections*; operators care about E2E *traffic*.
    This module weights each ordered pair by a gravity-model demand
    [w(u)·w(v)] — node masses follow degree with heavy-tailed noise, so a
    few eyeball/content pairs carry most bytes, mirroring the "82% of IP
    traffic is video" motivation. The weighted saturated connectivity is
    the fraction of demand whose pair has a B-dominated path; because
    brokers are picked from the high-degree core, it exceeds the unweighted
    fraction at every budget. *)

type model = {
  masses : float array;  (** per-node gravity mass, normalized to mean 1 *)
}

val gravity : rng:Broker_util.Xrandom.t -> Broker_graph.Graph.t -> model
(** Mass = degree scaled by a log-normal-ish factor. Deterministic for a
    given RNG state. *)

val weighted_saturated :
  rng:Broker_util.Xrandom.t ->
  sources:int ->
  Broker_graph.Graph.t ->
  model ->
  is_broker:(int -> bool) ->
  float
(** Fraction of total pairwise demand served by dominated paths, estimated
    by mass-weighted source sampling: sources drawn proportionally to
    their mass, each source's row weighted by destination masses (an
    unbiased estimator of the demand-weighted mean). *)
