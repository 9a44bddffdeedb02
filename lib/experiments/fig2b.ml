module Report = Broker_report.Report
module Conn = Broker_core.Connectivity

type row = {
  name : string;
  brokers : int;
  curve : Broker_core.Connectivity.curve;
}

let compute ctx =
  let topo = Ctx.topo ctx in
  let g = Ctx.graph ctx in
  let k = Ctx.scale_count ctx 1000 in
  let eval name brokers =
    { name; brokers = Array.length brokers; curve = Ctx.curve ctx brokers }
  in
  let prefix order = Array.sub order 0 (min k (Array.length order)) in
  (* All-roots MCBG is quadratic in x*; at full scale use the single-root
     shortcut (ablation_beta quantifies the negligible difference). *)
  let all_roots = Ctx.scale ctx < 0.2 in
  let mcbg = Broker_core.Mcbg.run ~all_roots g ~k ~beta:4 in
  [
    eval "MCBG-approx" mcbg.Broker_core.Mcbg.brokers;
    eval "MaxSG" (prefix (Ctx.maxsg_order ctx));
    eval "Greedy-MCB" (prefix (Ctx.greedy_order ctx));
    eval "DB (degree)" (Broker_core.Baselines.db g ~k);
    eval "PRB (PageRank)" (Broker_core.Baselines.prb g ~k);
    eval "IXPB (all IXPs)" (Broker_core.Baselines.ixpb topo ~min_degree:0);
    eval "Tier1Only" (Broker_core.Baselines.tier1_only topo);
  ]

let report ctx =
  let rep = Report.create ~name:"fig2b" () in
  let s = Report.section rep "Fig 2b - l-hop connectivity per selection algorithm" in
  let columns =
    Report.col "Algorithm" :: Report.col "k"
    :: List.map (fun l -> Report.col (Printf.sprintf "l=%d" l)) [ 2; 3; 4; 5; 6 ]
    @ [ Report.col "saturated" ]
  in
  let t = Report.table s ~columns () in
  List.iter
    (fun r ->
      Report.row t
        (Report.str r.name :: Report.int r.brokers
         :: List.map (fun l -> Report.pct (Conn.value_at r.curve l)) [ 2; 3; 4; 5; 6 ]
        @ [ Report.pct r.curve.Conn.saturated ]))
    (compute ctx);
  Report.note s
    "Paper at ~1,000 brokers: approx 85.71%, MaxSG within 0.5% of approx, DB 72.53%, IXPB <= 15.70%, Tier1Only worse.\n";
  rep
