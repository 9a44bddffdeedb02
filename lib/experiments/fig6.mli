(** Fig. 6 + Section 7.1: the brokerage business model in numbers — Nash
    bargaining with a hired employee AS, and the Stackelberg pricing game
    against a heterogeneous customer population. *)

val report : Ctx.t -> Broker_report.Report.t
