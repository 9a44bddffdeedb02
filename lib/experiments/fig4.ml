module Report = Broker_report.Report
module Stats = Broker_util.Stats

type row = {
  name : string;
  mean_coreness : float;
  median_coreness : float;
  deep_core_share : float;  (** fraction with coreness in the top quartile *)
  edge_share : float;  (** fraction with coreness <= 2 *)
  covered_fraction : float;  (** f(B)/|V| — how much of the network is touched *)
}

let compute ctx =
  let g = Ctx.graph ctx in
  let core = Broker_graph.Kcore.coreness g in
  let degeneracy = Array.fold_left max 0 core in
  let deep = 3 * degeneracy / 4 in
  let k = Ctx.scale_count ctx 1000 in
  let describe name brokers =
    let cs = Array.map (fun v -> float_of_int core.(v)) brokers in
    let total = float_of_int (max 1 (Array.length brokers)) in
    let count p = float_of_int (Array.fold_left (fun a v -> if p core.(v) then a + 1 else a) 0 brokers) in
    let cov = Broker_core.Coverage.create g in
    Array.iter (Broker_core.Coverage.add cov) brokers;
    {
      name;
      mean_coreness = Stats.mean cs;
      median_coreness = Stats.median cs;
      deep_core_share = count (fun c -> c >= deep) /. total;
      edge_share = count (fun c -> c <= 2) /. total;
      covered_fraction = Broker_core.Coverage.coverage_fraction cov;
    }
  in
  let maxsg = Array.sub (Ctx.maxsg_order ctx) 0 (min k (Array.length (Ctx.maxsg_order ctx))) in
  [
    describe "DB (degree)" (Broker_core.Baselines.db g ~k);
    describe "MaxSG" maxsg;
  ]

let report ctx =
  let rep = Report.create ~name:"fig4" () in
  let s =
    Report.section rep "Fig 4 - broker placement: core concentration vs edge coverage"
  in
  let t =
    Report.table s
      ~columns:
        [
          Report.col "Selection";
          Report.col "Mean coreness";
          Report.col "Median";
          Report.col "Deep-core %";
          Report.col "Edge %";
          Report.col "f(B)/|V|";
        ]
      ()
  in
  List.iter
    (fun r ->
      Report.row t
        [
          Report.str r.name;
          Report.float r.mean_coreness;
          Report.float r.median_coreness;
          Report.pct r.deep_core_share;
          Report.pct r.edge_share;
          Report.pct r.covered_fraction;
        ])
    (compute ctx);
  Report.note s
    "Paper: DB crowds the core leaving the edge uncovered; MaxSG covers the outer ring too.\n";
  rep
