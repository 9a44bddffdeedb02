(** Bridge from a {!Broker_obs.Metrics} snapshot to the report IR.

    The snapshot becomes a one-section report named ["obs_metrics"]:
    a [Metric | Kind | Value] table (one row per instrument, sorted by
    name), plus one series per deterministic histogram carrying the
    log-bucket shape. Deterministic values are plain integer cells — so
    two runs at the same seed/scale diff clean through
    [brokerctl report diff] and CI can assert counter determinism —
    while volatile values are emitted through the [Report.seconds]
    volatility channel and never gate a diff. *)

val to_text : Broker_obs.Metrics.snapshot -> string
(** The text summary ([--obs-summary]), rendered through
    [Broker_util.Table] via {!Report_text}. *)

val to_json : Broker_obs.Metrics.snapshot -> string
(** The [brokerset-report/1] JSON artifact ([--metrics FILE]). *)

val timeline_to_json : unit -> string
(** Every registered {!Broker_obs.Timeseries} that holds data, as a
    one-section [brokerset-report/1] JSON artifact named
    ["obs_timeline"] ([brokerctl simulate --timeline FILE]). *)
