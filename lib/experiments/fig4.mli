(** Fig. 4: where the brokers sit — DB packs the network core and leaves
    the edge uncovered; MaxSG spreads over core and outer ring. Quantified
    here by the coreness distribution of each selected set. *)

val report : Ctx.t -> Broker_report.Report.t
