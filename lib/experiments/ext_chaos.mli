(** X7 (reproduction extension): availability vs failure rate under chaos.

    Sweeps the kept fraction of a max-rate per-broker failure process over
    alliance sizes k ∈ {100, 1000, 3540} (scaled), running the flow-level
    simulator with the fault stream injected, failover both on and off on
    the {e same} stream. Thinning couples the sweep points (nested outage
    sets), so availability degrades monotonically in the fault rate
    sample-wise. A second table ablates the per-broker admission circuit
    breaker under deliberate overload. *)

type row = {
  k : int;  (** alliance size actually used (scaled, clamped) *)
  keep : float;  (** kept fraction of the max-rate fault stream *)
  availability : float;  (** 1 − downtime / (k · horizon) *)
  delivered_on : float;  (** delivered rate with failover *)
  delivered_off : float;  (** delivered rate without failover *)
  failed_over : int;  (** successful mid-flight reroutes (failover run) *)
  dropped_off : int;  (** mid-flight drops in the no-failover run *)
}

val keeps : float list [@@brokercheck.test_only]
(** The fault-rate sweep: kept fractions, ascending, starting at 0. *)

val compute : ?n_sessions:int -> Ctx.t -> row list [@@brokercheck.test_only]
(** Rows grouped by k (in {!keeps} order within each k). Deterministic in
    the context's seed. *)

val report : Ctx.t -> Broker_report.Report.t
