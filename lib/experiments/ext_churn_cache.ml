module Report = Broker_report.Report
module X = Broker_util.Xrandom
module Sim = Broker_sim.Simulator
module Faults = Broker_sim.Faults
module Workload = Broker_sim.Workload
module Cache = Broker_sim.Shard_cache

let strategies =
  [
    ("flush", Cache.Flush);
    ("modulo", Cache.Modulo);
    ("ring", Cache.Ring { vnodes = Cache.default_vnodes });
  ]

type phase_row = {
  strategy : string;
  phase : string;
  lookups : int;
  hit_rate : float;
  served_degraded : int;
  repaired_lazily : int;
  recomputed : int;
}

type remap_row = {
  strategy : string;
  shards : int;
  crashed_shards : int;
  remap_fraction : float;  (** nan for flush (no owner function) *)
}

type sim_row = {
  strategy : string;
  delivered : float;
  sim_hit_rate : float;
  sim_served_degraded : int;
  sim_repaired : int;
  sim_recomputed : int;
  evicted : int;
  flushed : int;
}

type rate_row = {
  strategy : string;
  keep : float;
  rate_delivered : float;
  rate_hit_rate : float;
  rate_recomputed : int;
}

let phase_names = [ "warm"; "churn"; "recovered" ]

let hit_rate_of (s : Cache.stats) =
  if s.Cache.lookups = 0 then 0.0
  else
    float_of_int (s.Cache.hits + s.Cache.served_degraded)
    /. float_of_int s.Cache.lookups

(* Shared scene for every strategy: scaled Internet topology, MaxSG broker
   order, Zipf-skewed endpoints. Brokers crashed by the churn are the m
   lowest-ranked alliance members, so dominated paths mostly survive and
   the experiment isolates cache policy rather than reachability. *)
let scene ctx =
  let topo = Ctx.topo_at ctx (Ctx.sim_scale ctx) in
  let g = topo.Broker_topo.Topology.graph in
  let brokers = Ctx.sim_brokers ctx in
  let k = Array.length brokers in
  let m = max 1 (k / 8) in
  let crashed = Array.sub brokers (k - m) m in
  (topo, g, brokers, crashed)

let compute ?(requests_per_phase = 4000) ctx =
  let _topo, g, brokers, crashed = scene ctx in
  let n = Broker_graph.Graph.n g in
  let model = Workload.zipf ~n () in
  let draw = Broker_util.Sampling.weighted_alias model.Broker_core.Traffic.masses in
  (* One request stream and one owner-sample key set, generated once and
     replayed for every strategy: the comparison below is on identical
     traffic. *)
  let req_rng = Ctx.rng ctx in
  let n_phases = List.length phase_names in
  let requests =
    Array.init (n_phases * requests_per_phase) (fun _ ->
        let src = draw req_rng in
        let dst = ref (draw req_rng) in
        while !dst = src do
          dst := draw req_rng
        done;
        (src, !dst))
  in
  let sample_rng = Ctx.rng ctx in
  let sample_keys =
    Array.init 1024 (fun _ ->
        let src = X.int sample_rng n in
        let dst = ref (X.int sample_rng n) in
        while !dst = src do
          dst := X.int sample_rng n
        done;
        (src, !dst))
  in
  let is_broker = Array.make n false in
  Array.iter (fun b -> is_broker.(b) <- true) brokers;
  let vw = Broker_graph.View.of_graph g in
  let run_strategy (label, strategy) =
    let down = Array.make n false in
    let cache =
      Cache.create ~strategy ~seed:(Ctx.seed ctx lxor 0xCACE) ~n
        ~shards:brokers ()
    in
    let compute_path src dst =
      match
        Broker_core.Dominating.find_dominated_path_view vw
          ~is_broker:(fun v -> is_broker.(v) && not down.(v))
          src dst
      with
      | [||] -> None
      | path -> Some path
    in
    let run_phase idx name prev =
      for i = idx * requests_per_phase to ((idx + 1) * requests_per_phase) - 1
      do
        let src, dst = requests.(i) in
        ignore (Cache.find cache ~compute:(fun () -> compute_path src dst) src dst)
      done;
      let s = Cache.stats cache in
      ( {
          strategy = label;
          phase = name;
          lookups = s.Cache.lookups - prev.Cache.lookups;
          hit_rate =
            (let d = s.Cache.lookups - prev.Cache.lookups in
             if d = 0 then 0.0
             else
               float_of_int
                 (s.Cache.hits - prev.Cache.hits
                 + (s.Cache.served_degraded - prev.Cache.served_degraded))
               /. float_of_int d);
          served_degraded = s.Cache.served_degraded - prev.Cache.served_degraded;
          repaired_lazily = s.Cache.repaired_lazily - prev.Cache.repaired_lazily;
          recomputed = s.Cache.recomputed - prev.Cache.recomputed;
        },
        s )
    in
    let owners () = Array.map (fun (s, d) -> Cache.owner cache s d) sample_keys in
    let warm, after_warm = run_phase 0 "warm" (Cache.stats cache) in
    let owners_before = owners () in
    Array.iter (fun b -> down.(b) <- true) crashed;
    Array.iter (Cache.crash cache) crashed;
    let owners_after = owners () in
    let remapped = ref 0 in
    Array.iteri
      (fun i before ->
        let same =
          match (before, owners_after.(i)) with
          | None, None -> true
          | Some a, Some b -> a = b
          | None, Some _ | Some _, None -> false
        in
        if not same then incr remapped)
      owners_before;
    let remap =
      {
        strategy = label;
        shards = Array.length brokers;
        crashed_shards = Array.length crashed;
        remap_fraction =
          (match strategy with
          | Cache.Flush -> nan
          | Cache.Modulo | Cache.Ring _ ->
              float_of_int !remapped /. float_of_int (Array.length sample_keys));
      }
    in
    let churn, after_churn = run_phase 1 "churn" after_warm in
    Array.iter (fun b -> down.(b) <- false) crashed;
    Array.iter (Cache.recover cache) crashed;
    let recovered, _ = run_phase 2 "recovered" after_churn in
    ([ warm; churn; recovered ], remap)
  in
  let results = List.map run_strategy strategies in
  (List.concat_map fst results, List.map snd results)

let phase_schedule ~horizon ~crashed =
  Faults.phased
    [
      (0.4 *. horizon, [||]);
      (0.3 *. horizon, crashed);
      (0.3 *. horizon, [||]);
    ]

let compute_sim ?(n_sessions = 4000) ctx =
  let topo, g, brokers, crashed = scene ctx in
  let n = Broker_graph.Graph.n g in
  let model = Workload.zipf ~n () in
  let sessions =
    Workload.generate ~rng:(Ctx.rng ctx) model ~n_sessions
      Workload.default_params
  in
  let horizon = Workload.last_arrival sessions +. 20.0 in
  let faults = phase_schedule ~horizon ~crashed in
  let config = Sim.degree_capacity g ~factor:0.25 in
  List.map
    (fun (label, strategy) ->
      let chaos = Sim.default_chaos faults in
      let s = Sim.run ~chaos ~cache:strategy topo ~brokers ~sessions config in
      let c = s.Sim.cache in
      {
        strategy = label;
        delivered = Sim.delivered_rate s;
        sim_hit_rate = hit_rate_of c;
        sim_served_degraded = c.Cache.served_degraded;
        sim_repaired = c.Cache.repaired_lazily;
        sim_recomputed = c.Cache.recomputed;
        evicted = c.Cache.evicted;
        flushed = c.Cache.flushed;
      })
    strategies

let rate_keeps = [ 0.25; 1.0 ]

let compute_rates ctx =
  let n_sessions = 3000 in
  let topo, g, brokers, _crashed = scene ctx in
  let n = Broker_graph.Graph.n g in
  let model = Workload.zipf ~n () in
  let sessions =
    Workload.generate ~rng:(Ctx.rng ctx) model ~n_sessions
      Workload.default_params
  in
  let horizon = Workload.last_arrival sessions +. 20.0 in
  let fault_seed = Ctx.seed ctx + 131 in
  let base =
    Faults.generate ~rng:(X.create fault_seed) topo ~brokers ~horizon
      (Faults.Independent { mtbf = horizon /. 8.0; mttr = 20.0 })
  in
  let config = Sim.degree_capacity g ~factor:0.25 in
  List.concat_map
    (fun keep ->
      let faults =
        Faults.thin ~rng:(X.create (fault_seed lxor 0x7a05)) ~keep base
      in
      List.map
        (fun (label, strategy) ->
          let chaos = Sim.default_chaos faults in
          let s =
            Sim.run ~chaos ~cache:strategy topo ~brokers ~sessions config
          in
          let c = s.Sim.cache in
          {
            strategy = label;
            keep;
            rate_delivered = Sim.delivered_rate s;
            rate_hit_rate = hit_rate_of c;
            rate_recomputed = c.Cache.recomputed;
          })
        strategies)
    rate_keeps

let report ctx =
  let rep = Report.create ~name:"ext_churn_cache" () in
  let s =
    Report.section rep
      "Extension - churn-resilient path cache: consistent hashing vs flush"
  in
  let phases, remaps = compute ctx in
  let pt =
    Report.table s ~key:"phases"
      ~columns:
        [
          Report.col "Strategy";
          Report.col "Phase";
          Report.col "Lookups";
          Report.col "Hit rate";
          Report.col "Degraded";
          Report.col "Repaired";
          Report.col "Recomputed";
        ]
      ()
  in
  List.iter
    (fun (r : phase_row) ->
      Report.row pt
        [
          Report.str r.strategy;
          Report.str r.phase;
          Report.int r.lookups;
          Report.pct r.hit_rate;
          Report.int r.served_degraded;
          Report.int r.repaired_lazily;
          Report.int r.recomputed;
        ])
    phases;
  Report.note s
    "Three-phase churn over Zipf-skewed pairs: all brokers up (warm), the\nlowest-ranked k/8 alliance members down (churn), everyone back\n(recovered). Hit rate counts degraded serves: a valid path riding an\noutage is still a cache win.\n";
  let rt =
    Report.table s ~key:"remap"
      ~columns:
        [
          Report.col "Strategy";
          Report.col "Shards";
          Report.col "Crashed";
          Report.col "Remapped keys";
        ]
      ()
  in
  List.iter
    (fun (r : remap_row) ->
      Report.row rt
        [
          Report.str r.strategy;
          Report.int r.shards;
          Report.int r.crashed_shards;
          (if Float.is_nan r.remap_fraction then Report.str "n/a"
           else Report.pct r.remap_fraction);
        ])
    remaps;
  Report.note s
    "Owner remap fraction over a fixed uniform key sample when the crashed\nshards leave: consistent hashing moves ~m/n of the keys, modulo\nreassignment moves almost all of them.\n";
  let st =
    Report.table s ~key:"sim"
      ~columns:
        [
          Report.col "Strategy";
          Report.col "Delivered";
          Report.col "Hit rate";
          Report.col "Degraded";
          Report.col "Repaired";
          Report.col "Recomputed";
          Report.col "Evicted";
          Report.col "Flushed";
        ]
      ()
  in
  List.iter
    (fun (r : sim_row) ->
      Report.row st
        [
          Report.str r.strategy;
          Report.pct r.delivered;
          Report.pct r.sim_hit_rate;
          Report.int r.sim_served_degraded;
          Report.int r.sim_repaired;
          Report.int r.sim_recomputed;
          Report.int r.evicted;
          Report.int r.flushed;
        ])
    (compute_sim ctx);
  Report.note s
    "Full flow-level simulation under the same three-phase schedule\n(Faults.phased): delivered sessions and cache outcomes per strategy.\n";
  let kt =
    Report.table s ~key:"rates"
      ~columns:
        [
          Report.col "Strategy";
          Report.col "Fault rate";
          Report.col "Delivered";
          Report.col "Hit rate";
          Report.col "Recomputed";
        ]
      ()
  in
  List.iter
    (fun r ->
      Report.row kt
        [
          Report.str r.strategy;
          Report.strf "%.2fx" r.keep;
          Report.pct r.rate_delivered;
          Report.pct r.rate_hit_rate;
          Report.int r.rate_recomputed;
        ])
    (compute_rates ctx);
  Report.note s
    "Independent crash/recover churn (MTBF = horizon/8, MTTR = 20) thinned\nto the kept fraction, as in X7: sustained churn is where the sharded\nstrategies separate from flush-on-crash.\n";
  rep
