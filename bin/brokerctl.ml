(* brokerctl — command-line driver for the broker-set library.

   Subcommands:
     generate    synthesize an AS+IXP topology and save it
     summary     Table-2 style summary of a saved topology
     select      run a broker-selection algorithm on a saved topology
     evaluate    l-hop connectivity of a broker set
     export-dot  write a renderable DOT sample
     simulate    flow-level brokerage simulation with admission control
     resilience  broker failure degradation sweep
     bgp-stats   valley-free BGP reachability and path lengths
     list        list the experiment registry
     run         run paper reproductions through a report backend (the
                 one experiment driver)
     report diff compare two JSON reports

   REPRO_LOG=info|debug|warning enables library progress logging on
   stderr. *)

open Cmdliner

let topo_arg =
  let doc = "Topology file (produced by $(b,generate))." in
  Arg.(required & opt (some string) None & info [ "t"; "topology" ] ~doc)

let seed_arg =
  let doc = "Deterministic seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

let scale_arg =
  let doc = "Scale factor in (0,1] relative to the paper's 52,079 nodes." in
  Arg.(value & opt float 0.1 & info [ "scale" ] ~doc)

(* A flag out of range is a usage error, refused before any file is
   read. *)
let usage_error cmd msg =
  prerr_endline (Printf.sprintf "brokerctl %s: %s" cmd msg);
  exit 2

let at_least_one cmd flag v =
  if v < 1 then usage_error cmd (Printf.sprintf "%s must be >= 1, got %d" flag v)

(* An output file is opened before the work that fills it: a path that
   cannot be written exits 1 naming the command and the path, before any
   time is spent. *)
let open_output cmd path =
  try open_out path
  with Sys_error msg ->
    prerr_endline (Printf.sprintf "brokerctl %s: %s" cmd msg);
    exit 1

(* Unreadable or malformed input files exit 1 with the reader's message. *)
let load path =
  try Broker_topo.Dataset.load ~path
  with Sys_error msg | Invalid_argument msg ->
    prerr_endline msg;
    exit 1

(* One broker id per line, each a vertex of an [n]-vertex topology. *)
let read_brokers ~n path =
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        prerr_endline msg;
        exit 1)
      fmt
  in
  let ic = try open_in path with Sys_error msg -> fail "%s" msg in
  let rec read line acc =
    match In_channel.input_line ic with
    | None ->
        close_in ic;
        Array.of_list (List.rev acc)
    | Some l -> (
        let s = String.trim l in
        match int_of_string_opt s with
        | None -> fail "%s:%d: not an integer: %S" path line s
        | Some b when b < 0 || b >= n ->
            fail "%s:%d: broker id %d outside the topology's 0..%d" path line
              b (n - 1)
        | Some b -> read (line + 1) (b :: acc))
  in
  read 1 []

(* generate *)
let generate scale seed out =
  if not (scale > 0.0 && scale <= 1.0) then
    usage_error "generate" (Printf.sprintf "--scale must be in (0, 1], got %g" scale);
  let oc = open_output "generate" out in
  let topo =
    Broker_topo.Internet.generate { (Broker_topo.Internet.scaled scale) with seed }
  in
  Broker_topo.Dataset.save oc topo;
  close_out oc;
  Format.printf "%a@." Broker_topo.Dataset.pp_summary
    (Broker_topo.Dataset.summarize topo);
  Printf.printf "saved to %s\n" out

let generate_cmd =
  let out =
    Arg.(value & opt string "topology.txt" & info [ "o"; "output" ] ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Synthesize an AS+IXP topology")
    Term.(const generate $ scale_arg $ seed_arg $ out)

(* summary *)
let summary path =
  Format.printf "%a@." Broker_topo.Dataset.pp_summary
    (Broker_topo.Dataset.summarize (load path))

let summary_cmd =
  Cmd.v
    (Cmd.info "summary" ~doc:"Summarize a topology (Table 2 rows)")
    Term.(const summary $ topo_arg)

(* select *)
let algo_arg =
  let alts = [ "maxsg"; "greedy"; "mcbg"; "db"; "prb"; "ixpb"; "tier1"; "sc" ] in
  let doc = Printf.sprintf "Selection algorithm: %s." (String.concat ", " alts) in
  Arg.(value & opt (enum (List.map (fun a -> (a, a)) alts)) "maxsg" & info [ "a"; "algorithm" ] ~doc)

(* The algorithms that take a budget; the others pick their own size. *)
let budgeted = [ "maxsg"; "greedy"; "mcbg"; "db"; "prb" ]

let k_arg =
  let doc =
    Printf.sprintf "Broker budget k (default 100); only for %s."
      (String.concat ", " budgeted)
  in
  Arg.(value & opt (some int) None & info [ "k" ] ~doc)

let select_brokers topo algo k seed =
  let g = topo.Broker_topo.Topology.graph in
  match algo with
  | "maxsg" -> Broker_core.Maxsg.run g ~k
  | "greedy" -> Broker_core.Greedy_mcb.celf g ~k
  | "mcbg" -> (Broker_core.Mcbg.run ~all_roots:false g ~k ~beta:4).Broker_core.Mcbg.brokers
  | "db" -> Broker_core.Baselines.db g ~k
  | "prb" -> Broker_core.Baselines.prb g ~k
  | "ixpb" -> Broker_core.Baselines.ixpb topo ~min_degree:0
  | "tier1" -> Broker_core.Baselines.tier1_only topo
  | "sc" -> Broker_core.Baselines.set_cover ~rng:(Broker_util.Xrandom.create seed) g
  | _ -> assert false

let select path algo k seed out =
  (match k with
  | Some _ when not (List.exists (String.equal algo) budgeted) ->
      usage_error "select"
        (Printf.sprintf "-k does not apply to %s, which takes no budget" algo)
  | Some k -> at_least_one "select" "-k" k
  | None -> ());
  let oc = open_output "select" out in
  let topo = load path in
  let brokers = select_brokers topo algo (Option.value k ~default:100) seed in
  Array.iter (fun b -> Printf.fprintf oc "%d\n" b) brokers;
  close_out oc;
  let cov = Broker_core.Coverage.create topo.Broker_topo.Topology.graph in
  Array.iter (Broker_core.Coverage.add cov) brokers;
  Printf.printf "%d brokers -> coverage f(B) = %d (%.2f%% of nodes); saved to %s\n"
    (Array.length brokers) (Broker_core.Coverage.f cov)
    (100.0 *. Broker_core.Coverage.coverage_fraction cov)
    out

let select_cmd =
  let out =
    Arg.(value & opt string "brokers.txt" & info [ "o"; "output" ] ~doc:"Broker list output file.")
  in
  Cmd.v
    (Cmd.info "select" ~doc:"Select a broker set")
    Term.(const select $ topo_arg $ algo_arg $ k_arg $ seed_arg $ out)

(* evaluate *)
let evaluate path brokers_path sources seed =
  at_least_one "evaluate" "--sources" sources;
  let g = (load path).Broker_topo.Topology.graph in
  let n = Broker_graph.Graph.n g in
  let brokers = read_brokers ~n brokers_path in
  let curve =
    Broker_core.Connectivity.sampled ~l_max:8
      ~rng:(Broker_util.Xrandom.create seed)
      ~sources g
      ~is_broker:(Broker_core.Connectivity.of_brokers ~n brokers)
  in
  for l = 1 to 8 do
    Printf.printf "l=%d  %.2f%%\n" l
      (100.0 *. Broker_core.Connectivity.value_at curve l)
  done;
  Printf.printf "saturated  %.2f%%\n"
    (100.0 *. curve.Broker_core.Connectivity.saturated)

let evaluate_cmd =
  let brokers =
    Arg.(required & opt (some string) None & info [ "b"; "brokers" ] ~doc:"Broker list file.")
  in
  let sources =
    Arg.(value & opt int 192 & info [ "sources" ] ~doc:"BFS source sample size.")
  in
  Cmd.v
    (Cmd.info "evaluate" ~doc:"l-hop E2E connectivity of a broker set")
    Term.(const evaluate $ topo_arg $ brokers $ sources $ seed_arg)

(* export-dot *)
let export_dot path out max_vertices =
  at_least_one "export-dot" "--max-vertices" max_vertices;
  let oc = open_output "export-dot" out in
  let topo = load path in
  let attrs v =
    if Broker_topo.Topology.is_ixp topo v then [ ("color", "red") ] else []
  in
  output_string oc
    (Broker_graph.Dot.to_dot ~vertex_attrs:attrs ~max_vertices
       topo.Broker_topo.Topology.graph);
  close_out oc;
  Printf.printf "wrote %s\n" out

let export_dot_cmd =
  let out = Arg.(value & opt string "topology.dot" & info [ "o"; "output" ] ~doc:"DOT output.") in
  let mv = Arg.(value & opt int 2000 & info [ "max-vertices" ] ~doc:"Keep the k highest-degree vertices.") in
  Cmd.v
    (Cmd.info "export-dot" ~doc:"Export a renderable DOT sample")
    Term.(const export_dot $ topo_arg $ out $ mv)

(* simulate *)
let simulate path brokers_path n_sessions capacity_factor seed chaos_on mtbf
    mttr scenario no_failover retries cache_strategy vnodes topo_updates
    topo_propagation topo_delay topo_per_hop topo_at stats_window timeline =
  let usage_error = usage_error "simulate" in
  (* The library checks its inputs (fault rates, retry budget, session
     count, ...) with Invalid_argument: report those as usage errors. *)
  let guard f = try f () with Invalid_argument msg -> usage_error msg in
  at_least_one "simulate" "--sessions" n_sessions;
  (* [not (x >= 0)] and [not (x > 0)] also reject NaN. *)
  if not (capacity_factor > 0.0) then
    usage_error (Printf.sprintf "--capacity-factor must be > 0, got %g" capacity_factor);
  if not (stats_window >= 0.0) then usage_error "--stats-window must be positive";
  if topo_updates < 0 then
    usage_error (Printf.sprintf "--topo-updates must be >= 0, got %d" topo_updates);
  (* A flag of a mode that is off would be silently ignored: refuse it,
     as --vnodes is refused without the ring strategy. *)
  let only_with mode on flags =
    List.iter
      (fun (flag, given) ->
        if given && not on then
          usage_error (Printf.sprintf "--%s applies only to --%s" flag mode))
      flags
  in
  only_with "chaos" chaos_on
    [
      ("mtbf", Option.is_some mtbf);
      ("mttr", Option.is_some mttr);
      ("fault-scenario", Option.is_some scenario);
      ("no-failover", no_failover);
      ("retries", Option.is_some retries);
    ];
  only_with "topo-updates" (topo_updates > 0)
    [
      ("topo-propagation", Option.is_some topo_propagation);
      ("topo-delay", Option.is_some topo_delay);
      ("topo-per-hop", Option.is_some topo_per_hop);
      ("topo-at", Option.is_some topo_at);
    ];
  let mtbf = Option.value mtbf ~default:300.0 in
  let mttr = Option.value mttr ~default:20.0 in
  let scenario = Option.value scenario ~default:"independent" in
  let retries = Option.value retries ~default:3 in
  let topo_propagation = Option.value topo_propagation ~default:"centralized" in
  let topo_delay = Option.value topo_delay ~default:5.0 in
  let topo_per_hop = Option.value topo_per_hop ~default:1.0 in
  let topo_at = Option.value topo_at ~default:0.5 in
  (* The library refuses these too, under its own names; refuse them
     here under the flag's. A propagation delay or a burst time that is
     NaN or infinite would stamp deliveries that block the event queue or
     never come due. *)
  if not (mtbf > 0.0) then usage_error (Printf.sprintf "--mtbf must be > 0, got %g" mtbf);
  if not (mttr > 0.0 && mttr < infinity) then
    usage_error (Printf.sprintf "--mttr must be finite and > 0, got %g" mttr);
  if retries < 0 then usage_error (Printf.sprintf "--retries must be >= 0, got %d" retries);
  List.iter
    (fun (flag, x) ->
      if not (x >= 0.0 && x < infinity) then
        usage_error (Printf.sprintf "--%s must be finite and >= 0, got %g" flag x))
    [ ("topo-delay", topo_delay); ("topo-per-hop", topo_per_hop) ];
  if Float.is_nan topo_at || Float.abs topo_at = infinity then
    usage_error (Printf.sprintf "--topo-at must be finite, got %g" topo_at);
  let cache =
    match (cache_strategy, vnodes) with
    | _, Some v when v < 1 -> usage_error "--vnodes must be >= 1"
    | Broker_sim.Shard_cache.Ring _, Some vnodes ->
        Broker_sim.Shard_cache.Ring { vnodes }
    | Broker_sim.Shard_cache.(Flush | Modulo), Some _ ->
        usage_error "--vnodes applies only to --cache-strategy ring"
    | strategy, None -> strategy
  in
  let timeline = Option.map (fun out -> (out, open_output "simulate" out)) timeline in
  let topo = load path in
  let g = topo.Broker_topo.Topology.graph in
  let brokers = read_brokers ~n:(Broker_graph.Graph.n g) brokers_path in
  let rng = Broker_util.Xrandom.create seed in
  let model = Broker_core.Traffic.gravity ~rng g in
  let sessions =
    guard (fun () ->
        Broker_sim.Workload.generate ~rng model ~n_sessions
          Broker_sim.Workload.default_params)
  in
  let config = Broker_sim.Simulator.degree_capacity g ~factor:capacity_factor in
  let chaos =
    if not chaos_on then None
    else
      let horizon = Broker_sim.Workload.last_arrival sessions +. 20.0 in
      let scen =
        match scenario with
        | "independent" -> Broker_sim.Faults.Independent { mtbf; mttr }
        | "degree" -> Broker_sim.Faults.Degree_targeted { mtbf; mttr; bias = 1.0 }
        | "ixp" -> Broker_sim.Faults.Ixp_outage { mtbf; mttr }
        | _ -> assert false
      in
      let faults =
        guard (fun () ->
            Broker_sim.Faults.generate
              ~rng:(Broker_util.Xrandom.create (seed + 1))
              topo ~brokers ~horizon scen)
      in
      Some
        {
          (Broker_sim.Simulator.default_chaos faults) with
          Broker_sim.Simulator.failover = not no_failover;
          retry =
            { Broker_sim.Simulator.default_retry with max_attempts = retries };
          chaos_seed = seed;
        }
  in
  let topo_churn =
    if topo_updates <= 0 then None
    else begin
      let horizon = Broker_sim.Workload.last_arrival sessions in
      let ops =
        guard (fun () ->
            Broker_sim.Topo_stream.burst
              ~rng:(Broker_util.Xrandom.create (seed + 2))
              g ~size:topo_updates)
      in
      let time = topo_at *. horizon in
      let propagation =
        match topo_propagation with
        | "centralized" ->
            Broker_sim.Topo_stream.Centralized { delay = topo_delay }
        | "bgp" ->
            Broker_sim.Topo_stream.Bgp_like
              { base = topo_delay; per_hop = topo_per_hop }
        | _ -> assert false
      in
      Some
        {
          Broker_sim.Simulator.updates =
            Array.map (fun op -> { Broker_sim.Topo_stream.time; op }) ops;
          propagation;
        }
    end
  in
  let stats_window =
    (* --timeline without an explicit window defaults to 40 windows
       across the arrival horizon. *)
    if stats_window > 0.0 then Some stats_window
    else if Option.is_some timeline then begin
      let horizon = Broker_sim.Workload.last_arrival sessions +. 20.0 in
      Some (Float.max 1e-6 (horizon /. 40.0))
    end
    else None
  in
  let s =
    guard (fun () ->
        Broker_sim.Simulator.run ?chaos ?topo:topo_churn ~cache ?stats_window
          topo ~brokers ~sessions config)
  in
  Printf.printf "offered             %d\n" s.Broker_sim.Simulator.offered;
  Printf.printf "admitted            %d (%.2f%%)\n" s.Broker_sim.Simulator.admitted
    (100.0 *. s.Broker_sim.Simulator.admission_rate);
  Printf.printf "rejected: no path   %d\n" s.Broker_sim.Simulator.rejected_no_path;
  Printf.printf "rejected: capacity  %d\n" s.Broker_sim.Simulator.rejected_capacity;
  Printf.printf "mean hops           %.2f\n" s.Broker_sim.Simulator.mean_hops;
  Printf.printf "employee-hop share  %.2f%%\n"
    (100.0 *. s.Broker_sim.Simulator.employee_hop_fraction);
  Printf.printf "mean utilization    %.2f%%\n"
    (100.0 *. s.Broker_sim.Simulator.mean_broker_utilization);
  Printf.printf "net revenue         %.1f\n" s.Broker_sim.Simulator.revenue;
  if chaos_on then begin
    Printf.printf "failed over         %d\n" s.Broker_sim.Simulator.failed_over;
    Printf.printf "dropped mid-flight  %d\n"
      s.Broker_sim.Simulator.dropped_midflight;
    Printf.printf "retried+admitted    %d\n"
      s.Broker_sim.Simulator.retried_admitted;
    Printf.printf "delivered rate      %.2f%%\n"
      (100.0 *. Broker_sim.Simulator.delivered_rate s);
    Printf.printf "broker downtime     %.1f\n"
      s.Broker_sim.Simulator.broker_downtime;
    Printf.printf "revenue lost        %.1f\n"
      s.Broker_sim.Simulator.revenue_lost;
    Printf.printf "availability        %.2f%%\n"
      (100.0 *. s.Broker_sim.Simulator.availability)
  end;
  if topo_updates > 0 then begin
    Printf.printf "topo propagation    %s\n" topo_propagation;
    Printf.printf "topo applied        %d\n"
      s.Broker_sim.Simulator.topo_applied;
    Printf.printf "topo ignored        %d\n"
      s.Broker_sim.Simulator.topo_ignored
  end;
  let c = s.Broker_sim.Simulator.cache in
  Printf.printf "cache strategy      %s\n"
    (Broker_sim.Shard_cache.strategy_name cache);
  Printf.printf "cache lookups       %d\n" c.Broker_sim.Shard_cache.lookups;
  Printf.printf "cache hits          %d\n" c.Broker_sim.Shard_cache.hits;
  Printf.printf "cache degraded      %d\n"
    c.Broker_sim.Shard_cache.served_degraded;
  Printf.printf "cache repaired      %d\n"
    c.Broker_sim.Shard_cache.repaired_lazily;
  Printf.printf "cache recomputed    %d\n"
    c.Broker_sim.Shard_cache.recomputed;
  Printf.printf "cache evicted       %d\n" c.Broker_sim.Shard_cache.evicted;
  Printf.printf "cache flushed       %d\n" c.Broker_sim.Shard_cache.flushed;
  (match stats_window with
  | None -> ()
  | Some w ->
      Printf.printf "stats window        %.3f\n" w;
      let with_data =
        List.filter
          (fun ts ->
            Array.length (Broker_obs.Timeseries.points ts) > 0)
          (Broker_obs.Timeseries.all ())
      in
      Printf.printf "timeline series     %d\n" (List.length with_data);
      (match timeline with
      | None -> ()
      | Some (out, oc) ->
          let json = Broker_report.Report_obs.timeline_to_json () in
          output_string oc json;
          output_string oc "\n";
          close_out oc;
          Printf.eprintf "timeline: %d series -> %s\n"
            (List.length with_data) out))

let simulate_cmd =
  let brokers =
    Arg.(required & opt (some string) None & info [ "b"; "brokers" ] ~doc:"Broker list file.")
  in
  let sessions =
    Arg.(value & opt int 5000 & info [ "sessions" ] ~doc:"Number of QoS sessions.")
  in
  let factor =
    Arg.(value & opt float 0.2 & info [ "capacity-factor" ] ~doc:"Broker capacity per unit degree.")
  in
  let chaos =
    Arg.(value & flag & info [ "chaos" ] ~doc:"Inject broker crash/recover faults.")
  in
  (* The chaos and topology-update flags default to [None] so that
     [simulate] can refuse one given without its mode; the defaults the
     docs name are applied there. *)
  let mtbf =
    Arg.(
      value
      & opt (some float) None
      & info [ "mtbf" ]
          ~doc:"Mean time between broker failures (--chaos only; default 300).")
  in
  let mttr =
    Arg.(
      value
      & opt (some float) None
      & info [ "mttr" ] ~doc:"Mean time to recover (--chaos only; default 20).")
  in
  let scenario =
    let alts = [ "independent"; "degree"; "ixp" ] in
    Arg.(
      value
      & opt (some (enum (List.map (fun a -> (a, a)) alts))) None
      & info [ "fault-scenario" ]
          ~doc:
            "Fault scenario: independent (default), degree (hub-targeted), \
             ixp (correlated); --chaos only.")
  in
  let no_failover =
    Arg.(
      value & flag
      & info [ "no-failover" ]
          ~doc:
            "Drop in-flight sessions of a crashed broker instead of \
             rerouting (--chaos only).")
  in
  let retries =
    Arg.(
      value
      & opt (some int) None
      & info [ "retries" ]
          ~doc:"Retry budget for blocked arrivals (--chaos only; default 3).")
  in
  let cache_strategy =
    let module C = Broker_sim.Shard_cache in
    let alts = [ C.Flush; C.Modulo; C.Ring { vnodes = C.default_vnodes } ] in
    Arg.(
      value
      & opt (enum (List.map (fun s -> (C.strategy_name s, s)) alts)) C.Flush
      & info [ "cache-strategy" ]
          ~doc:
            "Path-cache strategy: flush (historical flush-on-crash), modulo \
             (static sharding), ring (consistent hashing).")
  in
  let vnodes =
    Arg.(
      value
      & opt (some int) None
      & info [ "vnodes" ]
          ~doc:
            (Printf.sprintf
               "Virtual nodes per broker shard; ring strategy only (default \
                %d)."
               Broker_sim.Shard_cache.default_vnodes))
  in
  let topo_updates =
    Arg.(
      value & opt int 0
      & info [ "topo-updates" ]
          ~doc:
            "Inject a burst of this many announce/withdraw topology updates \
             (0 disables streaming updates).")
  in
  let topo_propagation =
    let alts = [ "centralized"; "bgp" ] in
    Arg.(
      value
      & opt (some (enum (List.map (fun a -> (a, a)) alts))) None
      & info [ "topo-propagation" ]
          ~doc:
            "Update propagation model: centralized (constant delay, the \
             default) or bgp (base + per-hop crawl to the nearest broker); \
             --topo-updates only.")
  in
  let topo_delay =
    Arg.(
      value
      & opt (some float) None
      & info [ "topo-delay" ]
          ~doc:
            "Centralized delivery delay, or the bgp base delay \
             (--topo-updates only; default 5).")
  in
  let topo_per_hop =
    Arg.(
      value
      & opt (some float) None
      & info [ "topo-per-hop" ]
          ~doc:"Per-hop delay of the bgp model (--topo-updates only; default 1).")
  in
  let topo_at =
    Arg.(
      value
      & opt (some float) None
      & info [ "topo-at" ]
          ~doc:
            "Burst origin time as a fraction of the arrival horizon \
             (--topo-updates only; default 0.5).")
  in
  let stats_window =
    Arg.(
      value & opt float 0.0
      & info [ "stats-window" ]
          ~doc:
            "Collect brokerstat sim-time timelines with this window width \
             (0 disables; --timeline implies a default window).")
  in
  let timeline =
    Arg.(
      value
      & opt (some string) None
      & info [ "timeline" ]
          ~doc:
            "Write the collected timelines (per-window throughput and \
             latency percentiles) as a report JSON artifact.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Flow-level brokerage simulation with admission control")
    Term.(
      const simulate $ topo_arg $ brokers $ sessions $ factor $ seed_arg
      $ chaos $ mtbf $ mttr $ scenario $ no_failover $ retries
      $ cache_strategy $ vnodes $ topo_updates $ topo_propagation
      $ topo_delay $ topo_per_hop $ topo_at $ stats_window $ timeline)

(* resilience *)
let resilience path brokers_path sources seed =
  at_least_one "resilience" "--sources" sources;
  let g = (load path).Broker_topo.Topology.graph in
  let brokers = read_brokers ~n:(Broker_graph.Graph.n g) brokers_path in
  let fractions = [ 0.0; 0.05; 0.1; 0.2; 0.4 ] in
  List.iter
    (fun model ->
      let name =
        match model with
        | Broker_core.Resilience.Random -> "random"
        | Broker_core.Resilience.Targeted -> "targeted"
      in
      let points =
        Broker_core.Resilience.degradation
          ~rng:(Broker_util.Xrandom.create seed)
          ~sources g ~brokers ~model ~fractions
      in
      List.iter
        (fun (p : Broker_core.Resilience.point) ->
          Printf.printf "%-9s failed=%3d (%.0f%%)  connectivity=%.2f%%\n" name
            p.Broker_core.Resilience.failed
            (100.0 *. p.Broker_core.Resilience.failed_fraction)
            (100.0 *. p.Broker_core.Resilience.connectivity))
        points)
    [ Broker_core.Resilience.Random; Broker_core.Resilience.Targeted ]

let resilience_cmd =
  let brokers =
    Arg.(required & opt (some string) None & info [ "b"; "brokers" ] ~doc:"Broker list file.")
  in
  let sources =
    Arg.(value & opt int 96 & info [ "sources" ] ~doc:"BFS source sample size.")
  in
  Cmd.v
    (Cmd.info "resilience" ~doc:"Broker failure degradation sweep")
    Term.(const resilience $ topo_arg $ brokers $ sources $ seed_arg)

(* bgp-stats *)
let bgp_stats path destinations seed =
  at_least_one "bgp-stats" "--destinations" destinations;
  let topo = load path in
  let rng = Broker_util.Xrandom.create seed in
  Printf.printf "policy-compliant reachability: %.2f%%\n"
    (100.0 *. Broker_routing.Bgp.reachable_fraction ~rng ~destinations topo);
  let rng = Broker_util.Xrandom.create seed in
  Printf.printf "mean BGP path length:          %.2f hops\n"
    (Broker_routing.Bgp.average_path_length ~rng ~destinations topo)

let bgp_stats_cmd =
  let destinations =
    Arg.(value & opt int 32 & info [ "destinations" ] ~doc:"Sampled destination ASes.")
  in
  Cmd.v
    (Cmd.info "bgp-stats" ~doc:"Valley-free BGP reachability and path lengths")
    Term.(const bgp_stats $ topo_arg $ destinations $ seed_arg)

(* report backends, artifact files and observability *)
module Report = Broker_report.Report
module Report_text = Broker_report.Report_text
module Report_json = Broker_report.Report_json
module Report_csv = Broker_report.Report_csv
module Report_diff = Broker_report.Report_diff

let write_file ~regen path contents =
  if (not regen) && Sys.file_exists path then begin
    Printf.eprintf
      "refusing to overwrite %s (pass --regen to regenerate artifacts)\n" path;
    exit 1
  end;
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* observability: --trace/--metrics/--obs-summary on `run`, plus the
   equivalent REPRO_TRACE env hook. *)
module Obs = Broker_obs

let obs_env_trace () =
  match Sys.getenv_opt "REPRO_TRACE" with
  | Some p when not (String.equal p "") -> Some p
  | Some _ | None -> None

let obs_begin ~trace ~metrics ~summary =
  let trace =
    match trace with Some p -> Some p | None -> obs_env_trace ()
  in
  if Option.is_some trace || Option.is_some metrics || summary then
    Obs.Control.set_enabled true;
  if Option.is_some trace then Obs.Trace.arm ();
  trace

let write_trace path =
  if Obs.Trace.write ~path then begin
    (* The sink self-checks: a trace artifact that does not parse as JSON
       is a bug, not a degraded artifact. *)
    (match Report_json.json_of_string (Obs.Trace.to_chrome_json ()) with
    | Ok _ -> ()
    | Error msg ->
        Printf.eprintf "internal error: trace JSON invalid: %s
" msg;
        exit 1);
    Printf.eprintf "trace: %d events (%d dropped) -> %s
"
      (Obs.Trace.recorded ()) (Obs.Trace.dropped ()) path
  end

let obs_finish ~trace ~metrics ~summary ~regen =
  (* Fold ring truncation into the snapshot before taking it, so
     `--obs-summary` and `--metrics` surface trace.dropped even when the
     trace itself is not written. *)
  if Obs.Trace.armed () then Obs.Trace.publish_dropped ();
  let snap =
    if Obs.Control.enabled () then Some (Obs.Metrics.snapshot ()) else None
  in
  (match trace with Some path -> write_trace path | None -> ());
  match snap with
  | None -> ()
  | Some snap ->
      (match metrics with
      | Some path ->
          write_file ~regen path (Broker_report.Report_obs.to_json snap ^ "\n")
      | None -> ());
      if summary then print_string (Broker_report.Report_obs.to_text snap)

(* list *)
let list_experiments () =
  Printf.printf "%-18s %-16s %s\n" "ID" "ARTIFACT" "DESCRIPTION";
  List.iter
    (fun (e : Broker_experiments.All.experiment) ->
      Printf.printf "%-18s %-16s %s\n" e.id e.artifact e.description)
    Broker_experiments.All.experiments

let list_cmd =
  Cmd.v
    (Cmd.info "list" ~doc:"List the experiment registry (id, paper artifact, description)")
    Term.(const list_experiments $ const ())

(* run *)
let run_suite format out regen trace metrics obs_summary ids =
  let trace = obs_begin ~trace ~metrics ~summary:obs_summary in
  let ctx =
    try Broker_experiments.Ctx.from_env ()
    with Invalid_argument msg ->
      prerr_endline ("brokerctl run: " ^ msg);
      exit 2
  in
  let selected =
    match ids with
    | [] -> Broker_experiments.All.experiments
    | ids ->
        List.map
          (fun id ->
            match Broker_experiments.All.find id with
            | Some e -> e
            | None ->
                Printf.eprintf "unknown experiment %S (see brokerctl list)\n" id;
                exit 2)
          ids
  in
  (match out with
  | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
  | _ -> ());
  let emit (e : Broker_experiments.All.experiment) r =
    match (format, out) with
    | "text", None ->
        Report_text.print r;
        Report_text.flush ()
    | "text", Some dir ->
        write_file ~regen (Filename.concat dir (e.id ^ ".txt"))
          (Format.asprintf "%a" Report_text.pp r)
    | "json", None -> print_endline (Report_json.to_string r)
    | "json", Some dir ->
        write_file ~regen (Filename.concat dir (e.id ^ ".json"))
          (Report_json.to_string r ^ "\n")
    | "csv", dir ->
        let dir = match dir with Some d -> d | None -> "." in
        List.iter
          (fun (name, contents) ->
            write_file ~regen (Filename.concat dir name) contents)
          (Report_csv.files r)
    | _ -> assert false
  in
  List.iter (fun e -> emit e (Broker_experiments.All.report_of ctx e)) selected;
  obs_finish ~trace ~metrics ~summary:obs_summary ~regen

let run_cmd =
  let format =
    let alts = [ "text"; "json"; "csv" ] in
    Arg.(
      value
      & opt (enum (List.map (fun a -> (a, a)) alts)) "text"
      & info [ "format" ] ~doc:"Output backend: text, json or csv.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR"
           ~doc:"Write one artifact file per experiment into $(docv) instead of stdout.")
  in
  let regen =
    Arg.(value & flag & info [ "regen" ] ~doc:"Overwrite existing artifact files.")
  in
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"ID"
           ~doc:"Experiment ids to run (default: the whole suite, in registry order).")
  in
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record a Chrome trace-event file (Perfetto-loadable) of the \
                 run into $(docv). The REPRO_TRACE env var is an equivalent \
                 hook.")
  in
  let metrics =
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Write the end-of-run metrics snapshot as a \
                 brokerset-report/1 JSON artifact into $(docv) (deterministic \
                 counters diffable via `report diff`).")
  in
  let obs_summary =
    Arg.(value & flag & info [ "obs-summary" ]
           ~doc:"Print the metrics snapshot as a text table after the run.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run paper reproductions through a report backend \
             (env: REPRO_SCALE, REPRO_SOURCES, REPRO_SEED, REPRO_DOMAINS, \
             REPRO_TRACE, REPRO_LOG)")
    Term.(const run_suite $ format $ out $ regen $ trace $ metrics
          $ obs_summary $ ids)

(* report diff *)
let parse_tol spec =
  match String.index_opt spec '=' with
  | Some i ->
      let key = String.sub spec 0 i in
      let v = String.sub spec (i + 1) (String.length spec - i - 1) in
      (match float_of_string_opt v with
      | Some eps -> (key, eps)
      | None -> Printf.eprintf "bad --tol %S: epsilon is not a float\n" spec; exit 2)
  | None -> (
      (* A bare float is a global tolerance (empty key prefix). *)
      match float_of_string_opt spec with
      | Some eps -> ("", eps)
      | None ->
          Printf.eprintf "bad --tol %S: expected KEY=EPS or a bare float\n" spec;
          exit 2)

let load_report path =
  let contents =
    try
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    with Sys_error msg ->
      prerr_endline msg;
      exit 2
  in
  match Report_json.of_string contents with
  | Ok r -> r
  | Error msg ->
      Printf.eprintf "%s: %s\n" path msg;
      exit 2

let report_diff a_path b_path tol_specs =
  let tols = List.map parse_tol tol_specs in
  let a = load_report a_path and b = load_report b_path in
  let outcome = Report_diff.compare ~tols a b in
  Format.printf "%a@." Report_diff.pp outcome;
  if not (Report_diff.ok outcome) then exit 1

let report_diff_cmd =
  let a = Arg.(required & pos 0 (some string) None & info [] ~docv:"A.json" ~doc:"Baseline report.") in
  let b = Arg.(required & pos 1 (some string) None & info [] ~docv:"B.json" ~doc:"Candidate report.") in
  let tols =
    Arg.(value & opt_all string [] & info [ "tol" ] ~docv:"KEY=EPS"
           ~doc:"Numeric tolerance for keys starting with KEY (longest prefix \
                 wins; a bare float sets the global default).")
  in
  Cmd.v
    (Cmd.info "diff" ~doc:"Compare two JSON reports; exit 1 on drift")
    Term.(const report_diff $ a $ b $ tols)

let report_cmd =
  Cmd.group
    (Cmd.info "report" ~doc:"Operations on serialized experiment reports")
    [ report_diff_cmd ]

let () =
  (match Sys.getenv_opt "REPRO_LOG" with
  | Some level ->
      Logs.set_reporter (Logs.format_reporter ());
      Logs.set_level
        (match String.lowercase_ascii level with
        | "debug" -> Some Logs.Debug
        | "warning" -> Some Logs.Warning
        | _ -> Some Logs.Info)
  | None -> ());
  (* Every subcommand that evaluates connectivity fans out over
     REPRO_DOMAINS domains: a malformed value is a usage error up front. *)
  (try ignore (Broker_util.Parallel.domain_count ())
   with Invalid_argument msg ->
     prerr_endline ("brokerctl: " ^ msg);
     exit 2);
  let info =
    Cmd.info "brokerctl" ~version:"1.0.0"
      ~doc:"Inter-domain routing via a small broker set - reproduction toolkit"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            generate_cmd;
            summary_cmd;
            select_cmd;
            evaluate_cmd;
            export_dot_cmd;
            simulate_cmd;
            resilience_cmd;
            bgp_stats_cmd;
            list_cmd;
            run_cmd;
            report_cmd;
          ]))
