(** X10 (reproduction extension): brokerstat phase timelines.

    One flow-level run — Zipf open-loop arrivals through a three-phase
    fault schedule (warm → the m = k/2 {e top}-ranked brokers down →
    recovered) with a topology-update burst landing mid-fault — collected
    through the {!Broker_sim.Simulator} [?stats_window] timelines. The
    report slices every windowed series by schedule phase: latency
    percentiles (p50/p90/p99/p99.9 of queue wait and end-to-end
    completion, from merged per-window {!Broker_obs.Sketch}es),
    throughput and cache hit rate per phase, and the time from the
    all-clear until per-window delivered throughput recovers to 90% of
    its warm-phase mean.

    Everything is keyed on deterministic sim-time: the timeline series
    are bitwise identical across [REPRO_DOMAINS] settings and across
    repeated runs at a fixed seed/scale (asserted by the tests and the
    CI determinism-replay job). *)

val phase_names : string list [@@brokercheck.test_only]
(** [["warm"; "fault"; "recovered"]], in schedule order. The fault
    phase spans the middle \[0.35, 0.65) of the horizon. *)

type latency_row = {
  lat_phase : string;
  kind : string;  (** ["queue_wait"] or ["e2e"] *)
  samples : int;
  p50 : float;
  p90 : float;
  p99 : float;
  p999 : float;  (** sim-time units (converted back from fixed-point) *)
}

type throughput_row = {
  tp_phase : string;
  duration : float;  (** phase length in sim-time units *)
  admitted_rate : float;  (** admissions per unit sim-time *)
  delivered_rate : float;  (** completed departures per unit sim-time *)
  rejected_rate : float;  (** terminal rejections per unit sim-time *)
  hit_rate : float;  (** 1 − recomputes/lookups over the phase's windows *)
  recomputes : int;
}

type result = {
  horizon : float;
  window : float;  (** the [?stats_window] width ([horizon / 40]) *)
  stats : Broker_sim.Simulator.stats;
  latencies : latency_row list;
      (** grouped by kind, phases in {!phase_names} order *)
  throughput : throughput_row list;  (** {!phase_names} order *)
  recovery_time : float;
      (** sim-time from the all-clear boundary to the first window whose
          delivered count reaches 90% of the warm per-window mean;
          [nan] when throughput never recovers within the horizon *)
  delivered_series : (float * float) array;  (** per-window (t, count) *)
  rejected_series : (float * float) array;
  recompute_series : (float * float) array;
  queue_p99_series : (float * float) array;
      (** per-window p99 queue wait in sim-time units *)
}

val compute : ?n_sessions:int -> Ctx.t -> result [@@brokercheck.test_only]
(** Run the scene (default 4000 sessions) and slice the timelines.
    Deterministic in the context's seed; independent of domain count.
    Once the result is built, every {!Broker_sim.Simulator.timeline_names}
    series is restarted, so the run's windows and sketches do not outlive
    the call. *)

val report : Ctx.t -> Broker_report.Report.t
