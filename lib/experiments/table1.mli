(** Table 1: alliance size vs QoS coverage — our approach at the paper's
    three budgets against the all-AS alliance of [13],[14]/[18],[19] and the
    all-IXP mediators of [20],[21],[22]. *)

type row = {
  method_name : string;
  brokers : int;
  fraction_of_nodes : float;
  coverage : float;  (** measured saturated E2E connectivity *)
  paper_coverage : float option;
}

val compute : Ctx.t -> row list [@@brokercheck.test_only]
val report : Ctx.t -> Broker_report.Report.t
