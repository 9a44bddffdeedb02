(** Registry of every table/figure reproduction, in paper order.

    Each experiment builds a {!Broker_report.Report.t}; the caller picks a
    backend ({!Broker_report.Report_text} reproduces the historical
    terminal output byte for byte). *)

type experiment = {
  id : string;  (** registry key, lowercase (["table1"], ["fig2b"], ...) *)
  description : string;  (** one-line summary for [brokerctl list] *)
  artifact : string;
      (** the paper artifact reproduced (["Table 1"], ["Fig. 2b"], ...) or
          ["ablation"] / ["extension"] for the repo's own studies *)
  report : Ctx.t -> Broker_report.Report.t;
}

val experiments : experiment list
(** In presentation order: T1-T5, F1-F6, econ, ablations, extensions. *)

val find : string -> experiment option
(** Lookup by id (case-insensitive), e.g. ["table1"], ["fig2b"]. *)

val report_of : Ctx.t -> experiment -> Broker_report.Report.t
(** Build one experiment's report on the shared context, with the run
    parameters ([scale]/[sources]/[seed]) attached as its meta block.
    [brokerctl run] is the one driver: it resolves ids with {!find} and
    renders each [report_of] through the chosen backend. *)
