module Report = Broker_report.Report
module Conn = Broker_core.Connectivity

let small_topo ctx factor =
  let params = { (Broker_topo.Internet.scaled factor) with seed = Ctx.seed ctx } in
  (Broker_topo.Internet.generate params).Broker_topo.Topology.graph

(* Timing goes through the obs clock (brokercheck R8, clock-discipline):
   monotonic, and the resulting cells stay flagged volatile via
   [Report.seconds]. *)
let time = Broker_obs.Clock.time

let celf_vs_naive ctx =
  let rep = Report.create ~name:"ablation_celf" () in
  let s =
    Report.section rep "Ablation - CELF lazy greedy vs naive greedy (Algorithm 1)"
  in
  let g = small_topo ctx 0.05 in
  let k = 200 in
  let naive, t_naive = time (fun () -> Broker_core.Greedy_mcb.naive g ~k) in
  let evals_naive = Broker_core.Greedy_mcb.gain_evaluations () in
  let celf, t_celf = time (fun () -> Broker_core.Greedy_mcb.celf g ~k) in
  let evals_celf = Broker_core.Greedy_mcb.gain_evaluations () in
  let t =
    Report.table s
      ~columns:
        [
          Report.col "Implementation";
          Report.col "Gain evals";
          Report.col ~unit:"s" "Seconds";
        ]
      ()
  in
  Report.row t
    [ Report.str "naive"; Report.int evals_naive; Report.seconds t_naive ];
  Report.row t
    [ Report.str "CELF"; Report.int evals_celf; Report.seconds t_celf ];
  Report.notef s "Outputs identical: %b (submodularity makes lazy evaluation exact).\n"
    (naive = celf);
  rep

let beta_sweep ctx =
  let rep = Report.create ~name:"ablation_beta" () in
  let s =
    Report.section rep "Ablation - Algorithm 2 budget split as assumed beta varies"
  in
  let g = small_topo ctx 0.05 in
  let n = Broker_graph.Graph.n g in
  (* Small enough that the x* coverage brokers sit several hops apart, so
     the connector stage actually has work to do. *)
  let k = 30 in
  let rng = Ctx.rng ctx in
  let sources = 96 in
  let t =
    Report.table s
      ~columns:
        [
          Report.col "beta";
          Report.col "x*";
          Report.col "connectors";
          Report.col "theta";
          Report.col "coverage f(B)/|V|";
          Report.col "saturated";
        ]
      ()
  in
  List.iter
    (fun beta ->
      let r = Broker_core.Mcbg.run g ~k ~beta in
      let cov = Broker_core.Coverage.create g in
      Array.iter (Broker_core.Coverage.add cov) r.Broker_core.Mcbg.brokers;
      let sat =
        Conn.saturated_sampled ~rng ~sources g
          ~is_broker:(Conn.of_brokers ~n r.Broker_core.Mcbg.brokers)
      in
      Report.row t
        [
          Report.int beta;
          Report.int r.Broker_core.Mcbg.x_star;
          Report.int (Array.length r.Broker_core.Mcbg.connectors);
          Report.int r.Broker_core.Mcbg.theta;
          Report.pct (Broker_core.Coverage.coverage_fraction cov);
          Report.pct sat;
        ])
    [ 2; 4; 6; 8 ];
  (* Single-root shortcut comparison at beta=4. *)
  let full = Broker_core.Mcbg.run ~all_roots:true g ~k ~beta:4 in
  let quick = Broker_core.Mcbg.run ~all_roots:false g ~k ~beta:4 in
  Report.metricf s ~key:"single_root_connectors"
    (float_of_int (Array.length quick.Broker_core.Mcbg.connectors))
    "Single-root shortcut: %d connectors vs %d with all-roots search (identical coverage brokers).\n"
    (Array.length quick.Broker_core.Mcbg.connectors)
    (Array.length full.Broker_core.Mcbg.connectors);
  rep

let sampling_accuracy ctx =
  let rep = Report.create ~name:"ablation_sampling" () in
  let s =
    Report.section rep "Ablation - sampled connectivity estimator accuracy"
  in
  let g = small_topo ctx 0.04 in
  let n = Broker_graph.Graph.n g in
  let brokers = Broker_core.Maxsg.run g ~k:(max 10 (n / 50)) in
  let is_broker = Conn.of_brokers ~n brokers in
  let exact = Conn.exact ~l_max:8 g ~is_broker in
  let t =
    Report.table s
      ~columns:
        [
          Report.col "Sources";
          Report.col "Max curve deviation";
          Report.col "Saturated deviation";
        ]
      ()
  in
  List.iter
    (fun sources ->
      let sampled = Conn.sampled ~l_max:8 ~rng:(Ctx.rng ctx) ~sources g ~is_broker in
      let dev, _ =
        Broker_core.Path_constraint.max_deviation sampled ~target:exact
      in
      Report.row t
        [
          Report.int sources;
          Report.float ~decimals:4 dev;
          Report.float ~decimals:4
            (abs_float (sampled.Conn.saturated -. exact.Conn.saturated));
        ])
    [ 16; 64; 256; 1024 ];
  Report.note s "The default budget (192+ sources) keeps deviation well under 1%.\n";
  rep
