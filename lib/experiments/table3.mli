(** Table 3: l-hop E2E connectivity of comparison topologies — ER-Random,
    WS-Small-World, BA-Scale-free (same node/edge budget) and the AS
    topology with and without IXPs. Free path selection (no broker
    restriction). The paper's headline cell: ASes-with-IXPs reaches 99.21%
    at l = 4. *)

type row = { name : string; curve : Broker_core.Connectivity.curve }

val compute : Ctx.t -> row list [@@brokercheck.test_only]
val report : Ctx.t -> Broker_report.Report.t
