(** Fig. 1: the AS-level topology is a scale-free, layered network with
    IXPs at both core and edge. We report the structural statistics behind
    the picture and export a renderable DOT sample. *)

val report : Ctx.t -> Broker_report.Report.t
(** Writes the DOT sample to ["fig1_topology.dot"] in the working
    directory. *)
