module Report = Broker_report.Report
module X = Broker_util.Xrandom
module Sim = Broker_sim.Simulator
module Faults = Broker_sim.Faults

type row = {
  k : int;
  keep : float;
  availability : float;
  delivered_on : float;
  delivered_off : float;
  failed_over : int;
  dropped_off : int;
}

let keeps = [ 0.0; 0.25; 0.5; 1.0 ]

(* Availability from the downtime integral against the *generation* horizon,
   which is identical across the failover on/off runs (every crash carries a
   matched recover clamped to that horizon, so the run's own end-of-horizon
   clipping never fires). Monotonicity in [keep] is then structural: thinned
   outage sets are nested, so the downtime union can only grow. *)
let availability_of ~k ~horizon downtime =
  if k = 0 || horizon <= 0.0 then 1.0
  else 1.0 -. (downtime /. (float_of_int k *. horizon))

let compute ?(n_sessions = 4000) ctx =
  let sim_scale = Ctx.sim_scale ctx in
  let topo = Ctx.topo_at ctx sim_scale in
  let g = topo.Broker_topo.Topology.graph in
  let order = Ctx.maxsg_order_at ctx sim_scale in
  let model = Broker_core.Traffic.gravity ~rng:(Ctx.rng ctx) g in
  let sessions =
    Broker_sim.Workload.generate ~rng:(Ctx.rng ctx) model ~n_sessions
      Broker_sim.Workload.default_params
  in
  (* Slack past the last arrival so outages also hit in-flight tails. *)
  let horizon = Broker_sim.Workload.last_arrival sessions +. 20.0 in
  let config = Sim.degree_capacity g ~factor:0.25 in
  List.concat_map
    (fun k0 ->
      let k =
        min (Array.length order)
          (max 4 (int_of_float (float_of_int k0 *. sim_scale)))
      in
      let brokers = Array.sub order 0 k in
      let fault_seed = Ctx.seed ctx + (7 * k0) in
      (* One max-rate base stream per alliance size; each sweep point keeps
         a nested subset of its crash/recover pairs (identically seeded thin
         rng), so availability degrades monotonically in [keep] sample-wise,
         not just in expectation. *)
      let base =
        Faults.generate ~rng:(X.create fault_seed) topo ~brokers ~horizon
          (Faults.Independent { mtbf = horizon /. 8.0; mttr = 20.0 })
      in
      List.map
        (fun keep ->
          let faults =
            Faults.thin ~rng:(X.create (fault_seed lxor 0x7a05)) ~keep base
          in
          let chaos_on = Sim.default_chaos faults in
          let chaos_off = { chaos_on with Sim.failover = false } in
          let on = Sim.run ~chaos:chaos_on topo ~brokers ~sessions config in
          let off = Sim.run ~chaos:chaos_off topo ~brokers ~sessions config in
          {
            k;
            keep;
            availability = availability_of ~k ~horizon on.Sim.broker_downtime;
            delivered_on = Sim.delivered_rate on;
            delivered_off = Sim.delivered_rate off;
            failed_over = on.Sim.failed_over;
            dropped_off = off.Sim.dropped_midflight;
          })
        keeps)
    [ 100; 1000; 3540 ]

let report ctx =
  let rep = Report.create ~name:"ext_chaos" () in
  let s =
    Report.section rep "Extension - chaos brokerage: failures, failover, availability"
  in
  let rows = compute ctx in
  let t =
    Report.table s ~key:"sweep"
      ~columns:
        [
          Report.col "k";
          Report.col "Fault rate";
          Report.col "Availability";
          Report.col "Delivered (failover)";
          Report.col "Delivered (no failover)";
          Report.col "Failed over";
          Report.col "Dropped (no fo)";
        ]
      ()
  in
  List.iter
    (fun r ->
      Report.row t
        [
          Report.int r.k;
          Report.strf "%.2fx" r.keep;
          Report.pct r.availability;
          Report.pct r.delivered_on;
          Report.pct r.delivered_off;
          Report.int r.failed_over;
          Report.int r.dropped_off;
        ])
    rows;
  Report.note s
    "Fault rate is the kept fraction of a max-rate per-broker failure\nprocess (MTBF = horizon/8, MTTR = 20). Failover reroutes in-flight\nsessions of a crashed broker onto alternate dominated paths.\n";
  (* Circuit-breaker ablation under deliberate overload: tight uniform
     capacity so the hub brokers sit above the high-water mark. *)
  let sim_scale = Ctx.sim_scale ctx in
  let topo = Ctx.topo_at ctx sim_scale in
  let g = topo.Broker_topo.Topology.graph in
  let order = Ctx.maxsg_order_at ctx sim_scale in
  let k =
    min (Array.length order) (max 4 (int_of_float (1000.0 *. sim_scale)))
  in
  let brokers = Array.sub order 0 k in
  let model = Broker_core.Traffic.gravity ~rng:(Ctx.rng ctx) g in
  let sessions =
    Broker_sim.Workload.generate ~rng:(Ctx.rng ctx) model ~n_sessions:3000
      Broker_sim.Workload.default_params
  in
  let config = Sim.uniform_capacity 12.0 in
  let bt =
    Report.table s ~key:"breaker"
      ~columns:
        [
          Report.col "Breaker";
          Report.col "Admitted";
          Report.col "Shed";
          Report.col "No capacity";
          Report.col "Mean util";
          Report.col "Net revenue";
        ]
      ()
  in
  List.iter
    (fun (label, breaker) ->
      let chaos =
        { (Sim.default_chaos [||]) with Sim.retry = Sim.no_retry; breaker }
      in
      let sr = Sim.run ~chaos topo ~brokers ~sessions config in
      Report.row bt
        [
          Report.str label;
          Report.pct sr.Sim.admission_rate;
          Report.int sr.Sim.rejected_shed;
          Report.int sr.Sim.rejected_capacity;
          Report.pct sr.Sim.mean_broker_utilization;
          Report.float ~decimals:0 sr.Sim.revenue;
        ])
    [
      ("off", None);
      ( "on",
        Some { Sim.high_water = 0.7; trip_after = 2.0; cooldown = 10.0 } );
    ];
  Report.note s
    "Breaker: a broker whose utilization stays >= 70% for 2 time units\nsheds arrivals for 10 units, trading admitted sessions for headroom\non the saturated hubs.\n";
  rep
