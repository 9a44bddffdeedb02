module Report = Broker_report.Report
module Sim = Broker_sim.Simulator
module Faults = Broker_sim.Faults
module Workload = Broker_sim.Workload
module Cache = Broker_sim.Shard_cache
module Topo_stream = Broker_sim.Topo_stream
module Ts = Broker_obs.Timeseries
module Sketch = Broker_obs.Sketch

let phase_names = [ "warm"; "fault"; "recovered" ]

(* Fractions of the horizon where the fault phase starts and ends; the
   topology burst lands mid-fault so its re-convergence cost shows up in
   the fault-phase cache series, not as a separate bump. *)
let fault_from = 0.35
let fault_until = 0.65
let burst_at = 0.5
let windows_per_run = 40

type latency_row = {
  lat_phase : string;
  kind : string;
  samples : int;
  p50 : float;
  p90 : float;
  p99 : float;
  p999 : float;
}

type throughput_row = {
  tp_phase : string;
  duration : float;
  admitted_rate : float;
  delivered_rate : float;
  rejected_rate : float;
  hit_rate : float;
  recomputes : int;
}

type result = {
  horizon : float;
  window : float;
  stats : Sim.stats;
  latencies : latency_row list;
  throughput : throughput_row list;
  recovery_time : float;
  delivered_series : (float * float) array;
  rejected_series : (float * float) array;
  recompute_series : (float * float) array;
  queue_p99_series : (float * float) array;
}

(* Same scene as X8 — scaled Internet topology, MaxSG broker order —
   except the crashed set is the m = k/2 *top*-ranked alliance members:
   X8 crashes the tail to isolate cache policy, but a timeline experiment
   wants a fault that visibly dents admission and stretches latency, and
   dominated paths lean on the top brokers. *)
let scene ctx =
  let topo = Ctx.topo_at ctx (Ctx.sim_scale ctx) in
  let g = topo.Broker_topo.Topology.graph in
  let brokers = Ctx.sim_brokers ctx in
  let m = max 1 (Array.length brokers / 2) in
  let crashed = Array.sub brokers 0 m in
  (topo, g, brokers, crashed)

let find_series name =
  List.find (fun ts -> String.equal (Ts.name ts) name) (Ts.all ())

let phase_of ~horizon mid =
  if mid < fault_from *. horizon then "warm"
  else if mid < fault_until *. horizon then "fault"
  else "recovered"

(* Merge the window sketches of [ts] whose window midpoint falls into
   [phase]; quantiles come out in fixed-point micro-units of sim-time. *)
let phase_quantiles ~horizon ~window ts phase =
  let acc = Sketch.create () in
  let samples = ref 0 in
  Array.iter
    (fun (p : Ts.point) ->
      if String.equal (phase_of ~horizon (p.Ts.t_start +. (0.5 *. window))) phase
      then begin
        samples := !samples + p.Ts.count;
        match p.Ts.sketch with
        | Some sk -> Sketch.merge ~into:acc sk
        | None -> ()
      end)
    (Ts.points ts);
  let q x = Ts.of_fp (Sketch.quantile acc x) in
  (!samples, q 0.5, q 0.9, q 0.99, q 0.999)

let phase_sum ~horizon ~window ts phase =
  Array.fold_left
    (fun acc (p : Ts.point) ->
      if String.equal (phase_of ~horizon (p.Ts.t_start +. (0.5 *. window))) phase
      then acc + p.Ts.sum
      else acc)
    0 (Ts.points ts)

let compute ?(n_sessions = 4000) ctx =
  let topo, g, brokers, crashed = scene ctx in
  let n = Broker_graph.Graph.n g in
  let model = Workload.zipf ~n () in
  let sessions =
    Workload.generate ~rng:(Ctx.rng ctx) model ~n_sessions
      Workload.default_params
  in
  let horizon = Workload.last_arrival sessions +. 20.0 in
  let faults =
    Faults.phased
      [
        (fault_from *. horizon, [||]);
        ((fault_until -. fault_from) *. horizon, crashed);
        ((1.0 -. fault_until) *. horizon, [||]);
      ]
  in
  let burst =
    Topo_stream.burst ~rng:(Ctx.rng ctx) g
      ~size:(max 16 (Array.length brokers))
  in
  let topo_churn =
    {
      Sim.updates =
        Array.map
          (fun op -> { Topo_stream.time = burst_at *. horizon; op })
          burst;
      propagation = Topo_stream.Centralized { delay = 1.0 };
    }
  in
  let window = horizon /. float_of_int windows_per_run in
  let config = Sim.degree_capacity g ~factor:0.25 in
  let chaos = Sim.default_chaos faults in
  let stats =
    Sim.run ~chaos ~topo:topo_churn
      ~cache:(Cache.Ring { vnodes = Cache.default_vnodes })
      ~stats_window:window topo ~brokers ~sessions config
  in
  let ts_admitted = find_series "sim.ts.admitted" in
  let ts_delivered = find_series "sim.ts.delivered" in
  let ts_rejected = find_series "sim.ts.rejected" in
  let ts_lookups = find_series "sim.ts.cache.lookups" in
  let ts_recomputes = find_series "sim.ts.cache.recomputes" in
  let ts_queue = find_series "sim.ts.latency.queue_wait" in
  let ts_e2e = find_series "sim.ts.latency.e2e" in
  let latencies =
    List.concat_map
      (fun (kind, ts) ->
        List.map
          (fun phase ->
            let samples, p50, p90, p99, p999 =
              phase_quantiles ~horizon ~window ts phase
            in
            { lat_phase = phase; kind; samples; p50; p90; p99; p999 })
          phase_names)
      [ ("queue_wait", ts_queue); ("e2e", ts_e2e) ]
  in
  (* Deliveries trail the last arrival, so the recovered phase runs to
     the last delivered window rather than stopping at the horizon. *)
  let last_end =
    Float.max horizon
      (float_of_int (Array.length (Ts.points ts_delivered)) *. window)
  in
  let bounds =
    [
      ("warm", 0.0, fault_from *. horizon);
      ("fault", fault_from *. horizon, fault_until *. horizon);
      ("recovered", fault_until *. horizon, last_end);
    ]
  in
  let throughput =
    List.map
      (fun (phase, t0, t1) ->
        let duration = t1 -. t0 in
        let rate ts =
          float_of_int (phase_sum ~horizon ~window ts phase) /. duration
        in
        let lookups = phase_sum ~horizon ~window ts_lookups phase in
        let recomputes = phase_sum ~horizon ~window ts_recomputes phase in
        {
          tp_phase = phase;
          duration;
          admitted_rate = rate ts_admitted;
          delivered_rate = rate ts_delivered;
          rejected_rate = rate ts_rejected;
          hit_rate =
            (if lookups = 0 then 0.0
             else 1.0 -. (float_of_int recomputes /. float_of_int lookups));
          recomputes;
        })
      bounds
  in
  (* Recovery: first post-all-clear window whose delivered count reaches
     90% of the warm per-window mean. *)
  let boundary = fault_until *. horizon in
  let warm_windows = ref 0 and warm_delivered = ref 0 in
  Array.iter
    (fun (p : Ts.point) ->
      if p.Ts.t_start +. (0.5 *. window) < fault_from *. horizon then begin
        incr warm_windows;
        warm_delivered := !warm_delivered + p.Ts.sum
      end)
    (Ts.points ts_delivered);
  let warm_mean =
    if !warm_windows = 0 then 0.0
    else float_of_int !warm_delivered /. float_of_int !warm_windows
  in
  let recovery_time = ref nan in
  Array.iter
    (fun (p : Ts.point) ->
      if
        Float.is_nan !recovery_time
        && p.Ts.t_start >= boundary
        && float_of_int p.Ts.sum >= 0.9 *. warm_mean
      then recovery_time := p.Ts.t_start -. boundary)
    (Ts.points ts_delivered);
  let queue_p99_series =
    let out = ref [] in
    Array.iter
      (fun (p : Ts.point) ->
        match p.Ts.sketch with
        | Some sk when p.Ts.count > 0 ->
            out :=
              (p.Ts.t_start, Ts.of_fp (Sketch.quantile sk 0.99)) :: !out
        | _ -> ())
      (Ts.points ts_queue);
    Array.of_list (List.rev !out)
  in
  let r =
    {
      horizon;
      window;
      stats;
      latencies;
      throughput;
      recovery_time = !recovery_time;
      delivered_series = Ts.values ts_delivered;
      rejected_series = Ts.values ts_rejected;
      recompute_series = Ts.values ts_recomputes;
      queue_p99_series;
    }
  in
  (* The result holds every number read off the series; restarting them
     drops the run's windows and their sketches (about 44 KB each), which
     would otherwise stay reachable from the global registry for the rest
     of the process. *)
  List.iter (fun name -> Ts.restart (find_series name)) Sim.timeline_names;
  r

let report ctx =
  let rep = Report.create ~name:"ext_timeline" () in
  let s =
    Report.section rep
      "Extension - brokerstat phase timelines: latency and recovery"
  in
  let r = compute ctx in
  Report.metricf s ~key:"horizon" r.horizon "horizon: %.1f sim-time units\n"
    r.horizon;
  Report.metricf s ~key:"stats.window" r.window
    "stats window: %.3f sim-time units (40 per run)\n" r.window;
  let lt =
    Report.table s ~key:"latency"
      ~columns:
        [
          Report.col "Kind";
          Report.col "Phase";
          Report.col "Samples";
          Report.col "p50";
          Report.col "p90";
          Report.col "p99";
          Report.col "p99.9";
        ]
      ()
  in
  List.iter
    (fun (row : latency_row) ->
      Report.row lt
        [
          Report.str row.kind;
          Report.str row.lat_phase;
          Report.int row.samples;
          Report.float ~decimals:3 row.p50;
          Report.float ~decimals:3 row.p90;
          Report.float ~decimals:3 row.p99;
          Report.float ~decimals:3 row.p999;
        ])
    r.latencies;
  Report.note s
    "Latency percentiles per schedule phase, from merged per-window\nsketches (relative error < 1/32). Open-loop discipline: queue wait and\nend-to-end times are measured from each session's intended arrival, so\nretry backoff during the fault phase shows up as latency rather than\nvanishing into a coordinated-omission gap.\n";
  let tt =
    Report.table s ~key:"throughput"
      ~columns:
        [
          Report.col "Phase";
          Report.col "Duration";
          Report.col "Admit/t";
          Report.col "Deliver/t";
          Report.col "Reject/t";
          Report.col "Cache hits";
          Report.col "Recomputes";
        ]
      ()
  in
  List.iter
    (fun (row : throughput_row) ->
      Report.row tt
        [
          Report.str row.tp_phase;
          Report.float ~decimals:1 row.duration;
          Report.float ~decimals:2 row.admitted_rate;
          Report.float ~decimals:2 row.delivered_rate;
          Report.float ~decimals:2 row.rejected_rate;
          Report.pct row.hit_rate;
          Report.int row.recomputes;
        ])
    r.throughput;
  Report.note s
    "Per-phase rates over the windowed series: the fault phase combines\nthe k/2 top-ranked brokers going down with a topology-update burst\nlanding mid-fault, so its recompute count is crash flushes plus\nre-convergence work.\n";
  if Float.is_nan r.recovery_time then
    Report.note s
      "Delivered throughput never regained 90% of its warm per-window mean\nwithin the horizon.\n"
  else
    Report.metricf s ~key:"recovery.time" r.recovery_time
      "recovery: delivered throughput back to 90%% of warm mean %.2f\nsim-time units after the all-clear\n"
      r.recovery_time;
  Report.series s ~key:"timeline.delivered" ~x:"t" ~y:"delivered"
    r.delivered_series;
  Report.series s ~key:"timeline.rejected" ~x:"t" ~y:"rejected"
    r.rejected_series;
  Report.series s ~key:"timeline.recomputes" ~x:"t" ~y:"recomputes"
    r.recompute_series;
  Report.series s ~key:"timeline.queue_wait.p99" ~x:"t" ~y:"p99"
    r.queue_p99_series;
  Report.note s
    "All series are keyed on deterministic sim-time, so this report is\nbitwise stable across runs and REPRO_DOMAINS settings and diffs clean\nthrough `brokerctl report diff`.\n";
  rep
