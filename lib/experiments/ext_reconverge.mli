(** X9 (reproduction extension): dynamic topology & coverage
    re-convergence.

    Streams announce/withdraw bursts through the three dynamic-topology
    layers — the {!Broker_graph.Delta} overlay, the
    {!Broker_core.Incremental} connectivity tracker, and the flow-level
    simulator's streaming-update mode — and tests the
    "centralization accelerates convergence" claim of the SDN-BGP line
    of work (PAPERS.md). Three tables:

    - {e incremental} — one burst per (broker budget, burst size)
      through the tracker, against a compact-and-rebuild oracle whose
      curve must match bitwise ([oracle_ok]).
    - {e reconverge} — the same bursts scheduled under a centralized
      constant-delay feed vs a BGP-like hop-staggered crawl
      ({!Broker_sim.Topo_stream.propagation}); re-convergence time is
      the earliest delivery after which saturated coverage never
      changes again.
    - {e sim} — the full simulator with a mid-run 64-update burst;
      every applied update flushes the whole path cache, so the cache
      columns price the recomputation churn per propagation model. *)

val report : Ctx.t -> Broker_report.Report.t
