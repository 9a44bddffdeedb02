(** Fig. 5b: directional (business-relationship-constrained) connectivity
    when a fraction p of inter-broker links is upgraded to bidirectional
    mutual transit. Paper: at p = 0.3, a 1,000-broker set reaches 72.5%
    and the full alliance 84.68%. *)

val report : Ctx.t -> Broker_report.Report.t
