module G = Broker_graph.Graph
module Report = Broker_report.Report

let dot_path = "fig1_topology.dot"

let report ctx =
  let rep = Report.create ~name:"fig1" () in
  let s =
    Report.section rep
      "Fig 1 - topology structure (scale-free, layered, IXPs core+edge)"
  in
  let topo = Ctx.topo ctx in
  let g = Ctx.graph ctx in
  let rng = Ctx.rng ctx in
  let core = Broker_graph.Kcore.coreness g in
  let degeneracy = Array.fold_left max 0 core in
  let ixps = Broker_topo.Topology.ixps topo in
  let deep = degeneracy / 2 in
  let ixp_core =
    Array.fold_left (fun acc v -> if core.(v) >= deep then acc + 1 else acc) 0 ixps
  in
  let ixp_edge =
    Array.fold_left (fun acc v -> if core.(v) <= 2 then acc + 1 else acc) 0 ixps
  in
  let avg_degree = Broker_graph.Metrics.average_degree g in
  Report.metric s ~key:"vertices" (float_of_int (G.n g));
  Report.metric s ~key:"edges" (float_of_int (G.m g));
  Report.metricf s ~key:"average_degree" avg_degree
    "Vertices: %d  Edges: %d  Average degree: %.2f\n" (G.n g) (G.m g) avg_degree;
  let exponent = Broker_graph.Metrics.power_law_exponent g in
  Report.metricf s ~key:"power_law_exponent" exponent
    "Power-law exponent (MLE, d >= 2): %.2f (scale-free range 1.5-3)\n" exponent;
  let assortativity = Broker_graph.Metrics.degree_assortativity g in
  Report.metricf s ~key:"assortativity" assortativity
    "Degree assortativity: %.3f (Internet AS graph is disassortative)\n"
    assortativity;
  let clustering = Broker_graph.Metrics.clustering_coefficient ~samples:1000 ~rng g in
  Report.metricf s ~key:"clustering" clustering
    "Mean clustering coefficient (sampled): %.3f\n" clustering;
  Report.metricf s ~key:"degeneracy" (float_of_int degeneracy)
    "Graph degeneracy (max coreness): %d\n" degeneracy;
  Report.metric s ~key:"ixp_core" (float_of_int ixp_core);
  Report.metricf s ~key:"ixp_edge" (float_of_int ixp_edge)
    "IXPs in the deep core (coreness >= %d): %d / %d; IXPs at the edge (coreness <= 2): %d\n"
    deep ixp_core (Array.length ixps) ixp_edge;
  let est =
    Broker_core.Alpha_beta.estimate ~rng:(Ctx.rng ctx) ~sources:(min 64 (Ctx.sources ctx))
      g ~alpha:0.99
  in
  Report.metric s ~key:"alpha" est.Broker_core.Alpha_beta.alpha;
  Report.metricf s ~key:"beta" (float_of_int est.Broker_core.Alpha_beta.beta)
    "(alpha,beta)-graph estimate: (%.3f, %d) (paper: (0.99, 4))\n"
    est.Broker_core.Alpha_beta.alpha est.Broker_core.Alpha_beta.beta;
  let attrs v =
    if Broker_topo.Topology.is_ixp topo v then [ ("color", "red"); ("shape", "box") ]
    else []
  in
  let dot = Broker_graph.Dot.to_dot ~name:"as_topology" ~vertex_attrs:attrs ~max_vertices:800 g in
  Broker_graph.Dot.write_file ~path:dot_path dot;
  Report.notef s "DOT sample (800 highest-degree nodes) written to %s\n" dot_path;
  rep
