(** Fig. 2b: l-hop E2E connectivity achieved by each selection algorithm at
    a ~1,000-broker budget (plus each baseline's natural size) — the
    paper's main algorithm comparison. MCBG-approx and MaxSG dominate; DB
    and PRB suffer the marginal effect; IXPB and Tier1Only stall under 16%. *)

val report : Ctx.t -> Broker_report.Report.t
