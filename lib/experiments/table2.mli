(** Table 2: summary of the (synthetic) dataset against the paper's
    collected-dataset numbers. *)

val report : Ctx.t -> Broker_report.Report.t
