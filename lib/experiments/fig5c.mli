(** Fig. 5c: connectivity under pure business-relationship (valley-free)
    routing across broker-set sizes — sharply below the bidirectional
    assumption, motivating the Fig. 5b upgrades. *)

val report : Ctx.t -> Broker_report.Report.t
