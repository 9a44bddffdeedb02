module Report = Broker_report.Report
module Obs = Broker_obs

let m_runs = Obs.Metrics.counter "experiments.runs"

type experiment = {
  id : string;
  description : string;
  artifact : string;
  report : Ctx.t -> Report.t;
}

let experiments =
  [
    { id = "table1"; description = "alliance size vs QoS coverage"; artifact = "Table 1"; report = Table1.report };
    { id = "table2"; description = "dataset summary"; artifact = "Table 2"; report = Table2.report };
    { id = "table3"; description = "l-hop connectivity per topology"; artifact = "Table 3"; report = Table3.report };
    { id = "table4"; description = "path inflation of the full alliance"; artifact = "Table 4"; report = Table4.report };
    { id = "table5"; description = "example brokers and rankings"; artifact = "Table 5"; report = Table5.report };
    { id = "fig1"; description = "topology structure + DOT export"; artifact = "Fig. 1"; report = (fun ctx -> Fig1.report ctx) };
    { id = "fig2a"; description = "Set-Cover set-size CDF"; artifact = "Fig. 2a"; report = Fig2a.report };
    { id = "fig2b"; description = "algorithm comparison"; artifact = "Fig. 2b"; report = Fig2b.report };
    { id = "fig3"; description = "PageRank correlation decay"; artifact = "Fig. 3"; report = Fig3.report };
    { id = "fig4"; description = "broker placement core vs edge"; artifact = "Fig. 4"; report = Fig4.report };
    { id = "fig5a"; description = "alliance composition"; artifact = "Fig. 5a"; report = Fig5a.report };
    { id = "fig5b"; description = "bidirectional upgrades"; artifact = "Fig. 5b"; report = Fig5b.report };
    { id = "fig5c"; description = "valley-free connectivity sweep"; artifact = "Fig. 5c"; report = Fig5c.report };
    { id = "fig6"; description = "bargaining + Stackelberg pricing"; artifact = "Fig. 6 / Sec 7.1"; report = Fig6.report };
    { id = "econ2"; description = "Shapley division + stability"; artifact = "Sec 7.2"; report = Econ2.report };
    { id = "ablation_celf"; description = "CELF vs naive greedy"; artifact = "ablation"; report = Ablations.celf_vs_naive };
    { id = "ablation_beta"; description = "Algorithm 2 beta sweep"; artifact = "ablation"; report = Ablations.beta_sweep };
    { id = "ablation_sampling"; description = "estimator accuracy"; artifact = "ablation"; report = Ablations.sampling_accuracy };
    { id = "ablation_exact"; description = "empirical approx ratios vs OPT"; artifact = "ablation"; report = Extensions.exact_ratio };
    { id = "ext_resilience"; description = "broker failure degradation"; artifact = "extension"; report = Extensions.resilience };
    { id = "ext_traffic"; description = "traffic-weighted connectivity"; artifact = "extension"; report = Extensions.traffic };
    { id = "ext_betweenness"; description = "betweenness-based selection"; artifact = "extension"; report = Extensions.betweenness };
    { id = "ext_bounded"; description = "radius-bounded selection"; artifact = "extension"; report = Extensions.bounded };
    { id = "ext_churn"; description = "growth & broker maintenance"; artifact = "extension"; report = Extensions.churn };
    { id = "ext_sim"; description = "flow-level brokerage simulation"; artifact = "extension"; report = Ext_sim.report };
    { id = "ext_chaos"; description = "fault injection, failover & availability"; artifact = "extension"; report = Ext_chaos.report };
    { id = "ext_regions"; description = "region-aware selection fairness"; artifact = "extension"; report = Extensions.regions };
    { id = "ext_churn_cache"; description = "path-cache strategies under broker churn"; artifact = "extension"; report = Ext_churn_cache.report };
    { id = "ext_reconverge"; description = "dynamic topology & coverage re-convergence"; artifact = "extension"; report = Ext_reconverge.report };
    { id = "ext_timeline"; description = "brokerstat phase timelines & recovery"; artifact = "extension"; report = Ext_timeline.report };
  ]

let find id =
  let id = String.lowercase_ascii id in
  List.find_opt (fun e -> String.equal e.id id) experiments

let report_of ctx e =
  Obs.Metrics.incr m_runs;
  let tr0 = Obs.Trace.enter () in
  let r = e.report ctx in
  if Obs.Trace.armed () then Obs.Trace.leave_named ("experiment." ^ e.id) tr0;
  Report.set_meta r
    [
      ("scale", Ctx.scale ctx);
      ("sources", float_of_int (Ctx.sources ctx));
      ("seed", float_of_int (Ctx.seed ctx));
    ];
  r
