(* X9 — dynamic topology: streaming announce/withdraw bursts, the
   incremental coverage tracker, and coverage re-convergence time under
   centralized vs BGP-like update propagation. *)

module Report = Broker_report.Report
module X = Broker_util.Xrandom
module G = Broker_graph.Graph
module Delta = Broker_graph.Delta
module Conn = Broker_core.Connectivity
module Incr = Broker_core.Incremental
module Sim = Broker_sim.Simulator
module Workload = Broker_sim.Workload
module Stream = Broker_sim.Topo_stream

let burst_sizes = [ 8; 32; 128 ]

let to_incr_op = function
  | Stream.Announce (u, v) -> Incr.Add (u, v)
  | Stream.Withdraw (u, v) -> Incr.Remove (u, v)

(* Fixed source sample shared by every row: common random numbers across
   broker budgets and burst sizes. *)
let sample_sources ctx g =
  let n = G.n g in
  let k = min (Ctx.sources ctx) n in
  Broker_util.Sampling.without_replacement
    (X.create (Ctx.seed ctx + 0x9E))
    ~n ~k

type incr_row = {
  k : int;  (** broker budget *)
  burst : int;  (** ops actually generated (may be < requested) *)
  applied : int;
  ignored : int;  (** ops with no broker endpoint *)
  affected : int;  (** sources whose reachable set may have changed *)
  reevaluated : int;  (** source batches re-swept *)
  batches : int;
  saturated : float;
  oracle_ok : bool;  (** curve bitwise-equal to from-scratch rebuild *)
}

(* Table A: one burst through the incremental tracker per (broker
   budget, burst size); the oracle column replays the same ops into a
   topology-level delta, compacts to a fresh CSR and re-evaluates from
   scratch — curves must match bitwise. *)
let compute_incremental ctx =
  let g = Ctx.graph ctx in
  let order = Ctx.maxsg_order ctx in
  let sources = sample_sources ctx g in
  let budgets =
    List.sort_uniq Int.compare
      [
        min (Array.length order) (Ctx.scale_count ctx 1000);
        min (Array.length order) (Ctx.scale_count ctx 3540);
      ]
  in
  List.concat_map
    (fun k ->
      let brokers = Array.sub order 0 k in
      let is_broker = Conn.of_brokers ~n:(G.n g) brokers in
      List.map
        (fun burst ->
          let rng = Ctx.rng ctx in
          let ops = Stream.burst ~rng g ~size:burst in
          let tracker = Incr.create g ~is_broker ~sources in
          let stats = Incr.apply tracker (Array.map to_incr_op ops) in
          let curve = Incr.curve tracker in
          (* From-scratch oracle on the compacted updated topology. *)
          let d = Delta.create g in
          Array.iter
            (fun op ->
              let u, v = Stream.op_endpoints op in
              ignore
                (match op with
                | Stream.Announce _ -> Delta.add_edge d u v
                | Stream.Withdraw _ -> Delta.remove_edge d u v))
            ops;
          let g' = Delta.compact g d in
          let oracle = Conn.eval_sources g' ~is_broker sources in
          {
            k;
            burst = Array.length ops;
            applied = stats.Incr.applied;
            ignored = stats.Incr.ignored;
            affected = stats.Incr.sources_affected;
            reevaluated = stats.Incr.batches_reevaluated;
            batches = stats.Incr.batches_total;
            saturated = curve.Conn.saturated;
            oracle_ok =
              Float.equal curve.Conn.saturated oracle.Conn.saturated
              && Array.for_all2 Float.equal curve.Conn.per_hop
                   oracle.Conn.per_hop;
          })
        burst_sizes)
    budgets

type conv_row = {
  model : string;
  cburst : int;
  events : int;
  t_first : float;  (** earliest delivery time *)
  t_last : float;  (** latest delivery time *)
  t_stable : float;  (** re-convergence time (see above) *)
  final : float;  (** saturated coverage after the last delivery *)
}

let propagations =
  [
    ("centralized", Stream.Centralized { delay = 1.0 });
    ("bgp-like", Stream.Bgp_like { base = 0.5; per_hop = 1.0 });
  ]

(* Table B: the same burst originates at t = 0; each update takes effect
   at its propagation-delayed delivery time. Coverage is re-evaluated
   incrementally after every delivery; the re-convergence time is the
   earliest delivery after which saturated coverage never changes
   again. *)
let compute_reconverge ctx =
  let g = Ctx.graph ctx in
  let order = Ctx.maxsg_order ctx in
  let sources = sample_sources ctx g in
  let k = min (Array.length order) (Ctx.scale_count ctx 3540) in
  let brokers = Array.sub order 0 k in
  let is_broker = Conn.of_brokers ~n:(G.n g) brokers in
  List.concat_map
    (fun burst ->
      let rng = Ctx.rng ctx in
      let ops = Stream.burst ~rng g ~size:burst in
      List.map
        (fun (label, prop) ->
          let events =
            Stream.schedule g ~brokers prop
              (Array.map (fun op -> { Stream.time = 0.0; op }) ops)
          in
          let events = Array.copy events in
          (* Stable sort keeps the burst order inside equal delivery
             times, so both models apply simultaneous ops identically. *)
          Array.stable_sort
            (fun a b -> Float.compare a.Stream.time b.Stream.time)
            events;
          let tracker = Incr.create g ~is_broker ~sources in
          let trace =
            Array.map
              (fun (e : Stream.event) ->
                ignore (Incr.apply tracker [| to_incr_op e.Stream.op |]);
                (e.Stream.time, Incr.saturated tracker))
              events
          in
          let ne = Array.length trace in
          let final = if ne = 0 then Incr.saturated tracker else snd trace.(ne - 1) in
          (* Walk back through the deliveries: coverage is converged from
             the first event whose *predecessor* state already equals the
             final value. *)
          let t_stable = ref 0.0 in
          (try
             for i = ne - 1 downto 0 do
               if not (Float.equal (snd trace.(i)) final) then begin
                 if i + 1 < ne then t_stable := fst trace.(i + 1);
                 raise Exit
               end;
               t_stable := fst trace.(i)
             done
           with Exit -> ());
          {
            model = label;
            cburst = Array.length ops;
            events = ne;
            t_first = (if ne = 0 then 0.0 else fst trace.(0));
            t_last = (if ne = 0 then 0.0 else fst trace.(ne - 1));
            t_stable = !t_stable;
            final;
          })
        propagations)
    burst_sizes

type sim_row = {
  smodel : string;  (** ["static"] baseline or a propagation label *)
  updates : int;
  applied : int;
  ignored : int;
  delivered : float;
  recomputed : int;  (** path-cache recomputations *)
  evicted : int;  (** cache evictions (full flush per applied update) *)
}

(* Table C: the full flow-level simulator with a mid-run update burst.
   Every applied update flushes the path cache, so the cache columns
   price the recomputation churn the propagation model causes. *)
let compute_sim ctx =
  let n_sessions = 3000 in
  let topo = Ctx.topo_at ctx (Ctx.sim_scale ctx) in
  let g = topo.Broker_topo.Topology.graph in
  let brokers = Ctx.sim_brokers ctx in
  let model = Workload.zipf ~n:(G.n g) () in
  let sessions =
    Workload.generate ~rng:(Ctx.rng ctx) model ~n_sessions
      Workload.default_params
  in
  let horizon = Workload.last_arrival sessions in
  let ops = Stream.burst ~rng:(Ctx.rng ctx) g ~size:64 in
  let updates =
    Array.map (fun op -> { Stream.time = 0.3 *. horizon; op }) ops
  in
  let config = Sim.degree_capacity g ~factor:0.25 in
  let baseline = Sim.run topo ~brokers ~sessions config in
  let base_row =
    {
      smodel = "static";
      updates = 0;
      applied = baseline.Sim.topo_applied;
      ignored = baseline.Sim.topo_ignored;
      delivered = Sim.delivered_rate baseline;
      recomputed = baseline.Sim.cache.Broker_sim.Shard_cache.recomputed;
      evicted = baseline.Sim.cache.Broker_sim.Shard_cache.evicted;
    }
  in
  base_row
  :: List.map
       (fun (label, propagation) ->
         let s =
           Sim.run ~topo:{ Sim.updates; propagation } topo ~brokers ~sessions
             config
         in
         {
           smodel = label;
           updates = Array.length updates;
           applied = s.Sim.topo_applied;
           ignored = s.Sim.topo_ignored;
           delivered = Sim.delivered_rate s;
           recomputed = s.Sim.cache.Broker_sim.Shard_cache.recomputed;
           evicted = s.Sim.cache.Broker_sim.Shard_cache.evicted;
         })
       propagations

let report ctx =
  let rep = Report.create ~name:"ext_reconverge" () in
  let s =
    Report.section rep
      "Extension - dynamic topology: incremental coverage & re-convergence"
  in
  let it =
    Report.table s ~key:"incremental"
      ~columns:
        [
          Report.col "Brokers";
          Report.col "Burst";
          Report.col "Applied";
          Report.col "Ignored";
          Report.col "Affected src";
          Report.col "Re-eval";
          Report.col "Batches";
          Report.col "Saturated";
          Report.col "Oracle";
        ]
      ()
  in
  List.iter
    (fun r ->
      Report.row it
        [
          Report.int r.k;
          Report.int r.burst;
          Report.int r.applied;
          Report.int r.ignored;
          Report.int r.affected;
          Report.int r.reevaluated;
          Report.int r.batches;
          Report.pct r.saturated;
          Report.str (if r.oracle_ok then "match" else "MISMATCH");
        ])
    (compute_incremental ctx);
  Report.note s
    "One announce/withdraw burst through the incremental tracker per\n\
     (broker budget, burst size). Ignored ops touch no broker endpoint and\n\
     never enter the dominated projection. Oracle: compact the delta and\n\
     re-evaluate from scratch - curves must match bitwise.\n";
  let ct =
    Report.table s ~key:"reconverge"
      ~columns:
        [
          Report.col "Propagation";
          Report.col "Burst";
          Report.col "Events";
          Report.col ~unit:"s" "First";
          Report.col ~unit:"s" "Last";
          Report.col ~unit:"s" "Stable";
          Report.col "Final";
        ]
      ()
  in
  List.iter
    (fun r ->
      Report.row ct
        [
          Report.str r.model;
          Report.int r.cburst;
          Report.int r.events;
          Report.float ~decimals:2 r.t_first;
          Report.float ~decimals:2 r.t_last;
          Report.float ~decimals:2 r.t_stable;
          Report.pct r.final;
        ])
    (compute_reconverge ctx);
  Report.note s
    "Coverage stabilization after a burst originating at t = 0. The\n\
     centralized feed delivers everything after one constant delay; the\n\
     BGP-like crawl staggers deliveries by hop distance to the nearest\n\
     broker, stretching the window the coverage estimate is stale.\n";
  let st =
    Report.table s ~key:"sim"
      ~columns:
        [
          Report.col "Propagation";
          Report.col "Updates";
          Report.col "Applied";
          Report.col "Ignored";
          Report.col "Delivered";
          Report.col "Recomputed";
          Report.col "Evicted";
        ]
      ()
  in
  List.iter
    (fun r ->
      Report.row st
        [
          Report.str r.smodel;
          Report.int r.updates;
          Report.int r.applied;
          Report.int r.ignored;
          Report.pct r.delivered;
          Report.int r.recomputed;
          Report.int r.evicted;
        ])
    (compute_sim ctx);
  Report.note s
    "Flow-level simulation with a 64-update burst at 0.3x the arrival\n\
     horizon: every applied update flushes the whole path cache, so the\n\
     recompute/evict columns price cache churn under each propagation\n\
     model against the static baseline.\n";
  rep
