(** Section 7.2: Shapley-value revenue division and coalition stability.

    The characteristic function is topology-derived: a broker subset S
    earns revenue proportional to the fraction of E2E pairs it can serve,
    v(S) = (f(S)/|V|)² — pair coverage exhibits the "network externality"
    the paper describes: marginal contributions first grow (supermodular
    phase — strong stability), then decay once the important ASes are in
    (the signal to stop growing B). Runs on a small (~1,000-node) topology
    so the 2^n subset enumeration stays exact. *)

val report : Ctx.t -> Broker_report.Report.t
