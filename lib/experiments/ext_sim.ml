module Report = Broker_report.Report

let report ctx =
  let rep = Report.create ~name:"ext_sim" () in
  let s =
    Report.section rep "Extension - flow-level brokerage simulation + latency stretch"
  in
  (* Simulation scale is capped: per-session path queries on the full graph
     would dominate runtime without changing the story. *)
  let topo = Ctx.topo_at ctx (Ctx.sim_scale ctx) in
  let g = topo.Broker_topo.Topology.graph in
  let brokers =
    let order = Ctx.maxsg_order_at ctx (Ctx.sim_scale ctx) in
    let k = max 30 (Broker_graph.Graph.n g / 20) in
    Array.sub order 0 (min (Array.length order) k)
  in
  let model = Broker_core.Traffic.gravity ~rng:(Ctx.rng ctx) g in
  let sessions =
    Broker_sim.Workload.generate ~rng:(Ctx.rng ctx) model ~n_sessions:8000
      Broker_sim.Workload.default_params
  in
  let t =
    Report.table s
      ~columns:
        [
          Report.col "Capacity factor";
          Report.col "Admitted";
          Report.col "No path";
          Report.col "No capacity";
          Report.col "Mean hops";
          Report.col "Utilization";
          Report.col "Net revenue";
        ]
      ()
  in
  List.iter
    (fun factor ->
      let config = Broker_sim.Simulator.degree_capacity g ~factor in
      let sr = Broker_sim.Simulator.run topo ~brokers ~sessions config in
      Report.row t
        [
          Report.float factor;
          Report.pct sr.Broker_sim.Simulator.admission_rate;
          Report.int sr.Broker_sim.Simulator.rejected_no_path;
          Report.int sr.Broker_sim.Simulator.rejected_capacity;
          Report.float sr.Broker_sim.Simulator.mean_hops;
          Report.pct sr.Broker_sim.Simulator.mean_broker_utilization;
          Report.float ~decimals:0 sr.Broker_sim.Simulator.revenue;
        ])
    [ 0.05; 0.1; 0.25; 0.5; 1.0 ];
  (* Latency stretch of broker paths vs free min-latency paths. *)
  let lat = Broker_routing.Latency.assign ~rng:(Ctx.rng ctx) topo in
  let n = Broker_graph.Graph.n g in
  let is_broker = Broker_core.Connectivity.of_brokers ~n brokers in
  let rng = Ctx.rng ctx in
  let stretches = ref [] in
  let tries = ref 0 in
  while List.length !stretches < 60 && !tries < 600 do
    incr tries;
    let src = Broker_util.Xrandom.int rng n and dst = Broker_util.Xrandom.int rng n in
    if src <> dst then
      match Broker_routing.Latency.stretch lat topo ~is_broker ~src ~dst with
      | Some st -> stretches := st :: !stretches
      | None -> ()
  done;
  let arr = Array.of_list !stretches in
  if Array.length arr > 0 then begin
    let st = Broker_util.Stats.summarize arr in
    Report.metric s ~key:"stretch.median" st.Broker_util.Stats.p50;
    Report.metric s ~key:"stretch.p90" st.Broker_util.Stats.p90;
    Report.metricf s ~key:"stretch.mean" st.Broker_util.Stats.mean
      "Latency stretch of dominated paths vs free min-latency paths over %d pairs:\nmean %.3f, median %.3f, p90 %.3f (1.0 = no inflation).\n"
      st.Broker_util.Stats.n st.Broker_util.Stats.mean st.Broker_util.Stats.p50
      st.Broker_util.Stats.p90
  end;
  rep
