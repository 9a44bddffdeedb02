(** Flow-level discrete-event simulation of the brokerage scheme.

    Sessions arrive between AS pairs and request a QoS-guaranteed
    B-dominated path. Admission control: every *broker* on the selected
    path must have spare capacity for the session's demand for its whole
    duration (brokers are the supervision/forwarding bottleneck the paper
    centralizes; non-broker endpoints are not capacity-constrained).
    Admitted sessions hold their reservation until departure; blocked ones
    fall back to best-effort BGP and count as rejected.

    Paths are hop-shortest dominated paths, computed once per distinct
    (src, dst) pair and cached in a {!Shard_cache} (strategy selectable
    via [?cache]; the default {!Shard_cache.Flush} reproduces the
    historical flush-on-crash behavior exactly: every strategy shares one
    entry table layout and one validating lookup, and Flush's eviction
    keeps its hits from ever needing repair). Brokers earn
    [2·price·demand·duration] per admitted session (both endpoints pay,
    as in Fig. 6) and pay [employee_cost] per non-broker transit hop
    used. The brokers are numbered in ascending vertex id, and their
    outage depth, usage, its time integral, last change time, capacity
    and breaker state live in arrays under that number, reached through
    one vertex → broker-index array per run; so a run allocates per
    broker and per session, plus that index and one liveness byte per
    vertex. The mean utilization sums the brokers that ever carried a
    reservation in increasing vertex id; open outages close into the
    downtime in [brokers] order.

    Every run is one event-driven loop — arrivals, departures, failures,
    recoveries, retries and topology updates merged through one
    {!Event_queue}. A {!chaos} value injects broker crash/recover events
    ({!Faults}), fails live sessions over onto alternate dominated paths
    avoiding down brokers, retries blocked arrivals with exponential
    backoff, and optionally sheds load via a per-broker admission circuit
    breaker.

    Determinism: given the same topology, broker set, session array and
    chaos value, [run] is bit-for-bit reproducible — the only randomness is
    the pre-generated fault stream and a jitter stream derived from
    [chaos_seed].

    Absent options are empty values, by construction: [run] has a single
    code path, and [?chaos] absent {e is} the chaos value with no faults,
    {!no_retry}, no breaker, [failover = false] and [chaos_seed = 0];
    [?topo] absent {e is} an empty update stream. So a run without
    [?chaos] equals, field for field, one with an empty fault stream,
    {!no_retry}, no breaker and seed 0 whatever its [failover] flag, and
    a run without [?topo] equals one with an empty stream. *)

type config = {
  capacity_of : int -> float;
      (** per-broker capacity in demand units; [run] reads it once per
          broker *)
  price : float;  (** per unit demand-time charged at each end *)
  employee_cost : float;  (** per employee hop, per unit demand-time *)
}

val uniform_capacity : float -> config
(** Same capacity everywhere, price 1.0, employee cost 0.2. *)

val degree_capacity : Broker_graph.Graph.t -> factor:float -> config
(** Capacity proportional to broker degree — big hubs carry more. *)

type retry_policy = {
  max_attempts : int;  (** additional attempts after the initial one *)
  base_delay : float;
  multiplier : float;  (** exponential backoff factor *)
  jitter : float;
      (** each delay is scaled by [1 + jitter·u], [u ~ U(0,1)] drawn from
          the deterministic chaos jitter stream *)
}

val no_retry : retry_policy
(** [max_attempts = 0]: every blocked arrival is rejected immediately. *)

val default_retry : retry_policy
(** 3 attempts, base delay 1.0, doubling, jitter 0.5. *)

type breaker_policy = {
  high_water : float;  (** utilization fraction that arms the breaker *)
  trip_after : float;
      (** how long utilization must stay at/above [high_water] to trip *)
  cooldown : float;  (** a tripped broker sheds all arrivals this long *)
}

type chaos = {
  faults : Faults.event array;
      (** pre-generated, time-sorted; events for non-broker vertices are
          ignored. At equal times faults are served before departures and
          retries (pessimistic order). *)
  failover : bool;
      (** when a broker crashes, try to move its in-flight sessions onto an
          alternate dominated path avoiding every down broker (the X7
          ablation switch). They are served in session-id order, whatever
          order they were admitted in (retries admit out of id order), so
          ids should be distinct; each session that cannot move is
          dropped. *)
  retry : retry_policy;
  breaker : breaker_policy option;
      (** admission-side circuit breaker; failover placement is exempt *)
  chaos_seed : int;  (** seeds the retry-jitter stream *)
}

val default_chaos : Faults.event array -> chaos
(** Failover on, {!default_retry}, no breaker, seed 97. *)

type topo_churn = {
  updates : Topo_stream.event array;
      (** announce/withdraw stream stamped with *origin* times; the
          simulator delays each by the propagation model before it takes
          effect *)
  propagation : Topo_stream.propagation;
}
(** Streaming topology churn. Routing reads a {!Broker_graph.Delta}
    overlay over the base CSR; every applied update refreshes the
    overlay view and invalidates the whole path cache (an edge change
    can reroute any pair). At equal times faults are served before
    updates. The overlay is built at the first delivered update, so an
    empty stream — what an absent [?topo] is — routes on the base graph
    throughout. *)

type stats = {
  offered : int;  (** sessions presented (retries not re-counted) *)
  admitted : int;
  rejected_no_path : int;
  rejected_capacity : int;
  rejected_shed : int;  (** blocked by a tripped circuit breaker *)
  admission_rate : float;
  mean_hops : float;  (** over admitted sessions, at admission time *)
  employee_hop_fraction : float;
      (** fraction of admitted-session hops crossing a hired non-broker *)
  peak_in_flight : int;
  mean_broker_utilization : float;
      (** time-average of used/capacity over brokers that served traffic *)
  revenue : float;
      (** broker coalition net revenue; mid-flight drops refund the
          unserved remainder of their take *)
  failed_over : int;  (** session-reroute events caused by broker crashes *)
  dropped_midflight : int;  (** admitted sessions killed by a crash *)
  retried_admitted : int;  (** admitted on a retry attempt (> 0) *)
  broker_downtime : float;
      (** summed per-broker down time (union of overlapping outages),
          clipped to the run horizon *)
  revenue_lost : float;  (** refunds issued for mid-flight drops *)
  availability : float;
      (** 1 − downtime / (brokers · horizon); 1.0 without chaos *)
  topo_applied : int;
      (** delivered topology updates that changed the edge set *)
  topo_ignored : int;
      (** delivered updates that were already satisfied (duplicate
          announce, withdraw of an absent edge) *)
  cache : Shard_cache.stats;
      (** path-cache outcome tallies (hits, degraded serves, lazy
          repairs, recomputes, evictions) for the whole run *)
}

val delivered_rate : stats -> float
(** Fraction of offered sessions admitted {e and} carried to completion:
    [(admitted − dropped_midflight) / offered]. *)

val timeline_names : string list
(** The windowed series [run ?stats_window] collects into the
    {!Broker_obs.Timeseries} registry (restarted at each instrumented
    run, so they always describe the latest one):

    - [sim.ts.admitted] / [sim.ts.delivered] / [sim.ts.rejected] —
      per-window admissions, completed departures, and terminal
      rejections;
    - [sim.ts.cache.lookups] / [sim.ts.cache.recomputes] — path-cache
      traffic; a window's hit rate is [1 - recomputes/lookups], and
      recompute spikes are re-convergence work after crashes or applied
      topology updates;
    - [sim.ts.latency.queue_wait] — admission instant minus intended
      (open-loop) arrival, over admitted sessions;
    - [sim.ts.latency.admission] — intended arrival to {e final}
      decision (admit or terminal reject), over all decided sessions;
    - [sim.ts.latency.failover] — session age when a crash forced it
      onto an alternate path;
    - [sim.ts.latency.e2e] — intended arrival to completed departure.

    Latency series sketch their samples in
    {!Broker_obs.Timeseries.fixed_point} micro-units of sim-time. All
    series are keyed on sim-time and deterministic for a fixed
    seed/scale.

    A run's windows, with every window's sketch, stay reachable from the
    global registry until the next instrumented run restarts the series.
    A caller that has read them should {!Broker_obs.Timeseries.restart}
    each series to release them. *)

val stats_equal : stats -> stats -> bool
(** Field-wise equality, [Float.equal] on floats (no polymorphic compare). *)

val run :
  ?chaos:chaos ->
  ?topo:topo_churn ->
  ?cache:Shard_cache.strategy ->
  ?stats_window:float ->
  Broker_topo.Topology.t ->
  brokers:int array ->
  sessions:Workload.session array ->
  config ->
  stats
(** Deterministic given the inputs. Sessions must be sorted by arrival
    (as {!Workload.generate} produces). [?cache] selects the path-cache
    strategy (default {!Shard_cache.Flush}, the historical behavior);
    without faults every strategy admits the same sessions — only the
    cache outcome tallies may differ.

    [?stats_window w] additionally collects the {!timeline_names}
    series with window width [w] (sim-time units). Collection is
    passive — it never feeds back into admission — so [stats] and
    every golden are byte-identical with or without it; with the
    option absent no series is touched at all.
    @raise Invalid_argument on out-of-order arrivals, negative [price],
    [employee_cost] or [capacity_of], an out-of-range broker, fault
    broker or topology update endpoint, a negative session duration
    (zero is legal), a NaN or infinite session
    arrival or duration, fault time or update time (a NaN time would
    block the event queue, an infinite one stretch the horizon to
    infinity), a NaN, negative or infinite propagation [delay], [base] or
    [per_hop] (each update's delivery time adds it), a negative
    [max_attempts], a NaN, negative or infinite retry
    [base_delay]/[multiplier]/[jitter], a NaN or negative breaker
    [high_water]/[trip_after]/[cooldown], an invalid cache strategy
    ([Ring] with [vnodes < 1]), or a non-positive [stats_window]. *)
