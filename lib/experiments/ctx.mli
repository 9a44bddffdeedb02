(** Shared context for the table/figure reproductions: the topology, the
    expensive broker orderings, and the evaluation budget. Everything is
    derived deterministically from [seed] and [scale].

    Environment knobs (read by {!from_env}):
    - [REPRO_SCALE] — topology scale factor in (0, 1], default 1.0 (the
      paper's full 52,079 nodes);
    - [REPRO_SOURCES] — BFS sources of the sampled connectivity estimator,
      default 192;
    - [REPRO_SEED] — master seed, default 42.

    An unset or empty variable keeps its default. *)

type t

val create : ?scale:float -> ?sources:int -> ?seed:int -> unit -> t
val from_env : unit -> t
(** @raise Invalid_argument ["REPRO_<NAME>: expected …, got \"…\""] when a
    set, non-empty variable does not parse or is out of range. *)

val scale : t -> float
val sources : t -> int
val seed : t -> int

val rng : t -> Broker_util.Xrandom.t
(** A fresh deterministic RNG stream (distinct per call). *)

val topo_at : t -> float -> Broker_topo.Topology.t
(** [topo_at t scale]: the topology at [scale] and the context's seed,
    generated on first use and cached per scale, so experiments that
    ask for the same scale share one topology.
    @raise Invalid_argument when [scale] is outside (0, 1]. *)

val maxsg_order_at : t -> float -> int array
(** MaxSG run to saturation on {!topo_at} (cached per scale); prefixes
    give every budget. *)

val topo : t -> Broker_topo.Topology.t
(** [topo_at t (scale t)]. *)

val graph : t -> Broker_graph.Graph.t

val maxsg_order : t -> int array
(** [maxsg_order_at t (scale t)]. *)

val sim_scale : t -> float
(** The simulator experiments' topology scale: [min (scale t) 0.05]. *)

val sim_brokers : t -> int array
(** The simulator experiments' alliance: the paper's 1,000 brokers scaled
    by {!sim_scale} (at least 8), a fresh prefix of
    [maxsg_order_at t (sim_scale t)], shorter when MaxSG saturates
    first. *)

val greedy_order : t -> int array
(** CELF greedy MCB ordering up to the saturation size of MaxSG (cached). *)

val scale_count : t -> int -> int
(** Scale a paper-quoted count (e.g. 3,540 brokers) by the topology scale,
    min 1. *)

val saturated : t -> brokers:int array -> float
(** Saturated E2E connectivity of a broker set, with the context's source
    budget and a fixed source sample (common random numbers across calls,
    so differences between broker sets are low-variance). *)

val curve : t -> ?l_max:int -> int array -> Broker_core.Connectivity.curve
(** [curve t brokers]: l-hop connectivity curve of the broker set, on the
    context's fixed source sample. [l_max] defaults to 10. *)

val directional_sources : t -> int array
(** Fixed source sample (<= 96 vertices) for the valley-free evaluations —
    shared across Fig. 5b/5c rows so upgrade levels and broker budgets are
    compared with common random numbers. *)

val quick_saturated : t -> brokers:int array -> float
(** Like {!saturated} but with a smaller fixed source sample (64), for
    experiments that evaluate hundreds of candidate broker sets (Fig. 3).
    Still common-random-numbers across calls. *)

val free_curve : t -> Broker_core.Connectivity.curve
(** Unrestricted ("ASesWithIXPs") curve, cached. *)

(** Note: [Ctx] carries no output state. Experiments build a
    {!Broker_report.Report.t} and the harness picks a backend
    ({!Broker_report.Report_text} for the terminal, [Report_json] /
    [Report_csv] for artifacts). *)
