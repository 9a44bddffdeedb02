(** Table 4: minimal path inflation — the connectivity-vs-hop-count curve of
    the full MaxSG alliance (bidirectional internal links) nearly overlaps
    the free-path-selection curve of the whole topology. *)

val report : Ctx.t -> Broker_report.Report.t
