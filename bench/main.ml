(* Benchmark & reproduction harness.

   Usage:
     main.exe                 regenerate every table/figure, then time the kernels
     main.exe table1 fig2b    regenerate selected experiments only
     main.exe --timings       run only the Bechamel timing suites
     main.exe --json FILE     with --timings/--perf-smoke: write per-kernel
                              medians as JSON (the BENCH_*.json trajectory)
     main.exe --perf-smoke    small-scale connectivity and re-convergence
                              kernel pairs only; exits non-zero unless
                              the MS-BFS engine beats the legacy path AND
                              the incremental tracker beats a rebuild on
                              both the ~1%-of-edges and the 8-op burst
     main.exe --timings --fullscale
                              additionally hand-time the connectivity pair
                              at REPRO_SCALE (Table 1 / Fig 2a shape)
     main.exe --list          list experiment ids

     main.exe --obs-overhead  time the connectivity kernel pair only (no
                              gate): CI runs this on the default build and
                              on --profile obs-absent and compares medians
                              to bound the disabled-probe overhead

   The JSON trajectory follows schema brokerset-bench/2: per kernel the
   median ns/run plus median GC allocation per run (minor_words /
   major_words), a "counters" object with the deterministic
   Broker_obs.Metrics fingerprint of one MS-BFS connectivity pass,
   and the derived speedups.

   Environment: REPRO_SCALE (default 1.0), REPRO_SOURCES (default 192),
   REPRO_SEED (default 42), REPRO_TRACE (write a Chrome trace of the
   run) — see Broker_experiments.Ctx and Broker_obs. *)

module E = Broker_experiments
module Report_text = Broker_report.Report_text
module Obs = Broker_obs

(* Timing kernels run on a small fixed-scale context so each iteration is
   milliseconds; the correctness-bearing full-scale run happens above. *)
let bench_ctx () = E.Ctx.create ~scale:0.02 ~sources:48 ~seed:7 ()

let experiment_tests () =
  let open Bechamel in
  List.map
    (fun (e : E.All.experiment) ->
      Test.make ~name:e.E.All.id
        (Staged.stage (fun () ->
             (* Fresh context per iteration: the timing covers the whole
                regeneration including topology generation. Reports are
                built but not rendered — experiments no longer print. *)
             let ctx = bench_ctx () in
             ignore (e.E.All.report ctx))))
    E.All.experiments

(* The legacy/msbfs pair must time the exact same evaluation
   (same brokers, same sources, same l_max): broker selection and source
   sampling are hoisted out of the staged thunks. 192 sources = three
   full MS-BFS batches plus a ragged tail, and the sampled-evaluator
   shape the acceptance speedups are quoted against. *)
let connectivity_setup ctx =
  let g = E.Ctx.graph ctx in
  let n = Broker_graph.Graph.n g in
  let brokers = Broker_core.Baselines.db g ~k:100 in
  let is_broker = Broker_core.Connectivity.of_brokers ~n brokers in
  let srcs =
    Broker_util.Sampling.without_replacement
      (Broker_util.Xrandom.create 3)
      ~n ~k:(min 192 n)
  in
  (g, is_broker, srcs)

let connectivity_pair ctx =
  let open Bechamel in
  let g, is_broker, srcs = connectivity_setup ctx in
  [
    Test.make ~name:"connectivity/legacy"
      (Staged.stage (fun () ->
           ignore
             (Broker_core.Connectivity.eval_sources_reference ~l_max:10 g
                ~is_broker srcs)));
    Test.make ~name:"connectivity/msbfs"
      (Staged.stage (fun () ->
           ignore
             (Broker_core.Connectivity.eval_sources ~l_max:10 g ~is_broker
                srcs)));
  ]

(* Dynamic-topology kernels: overlay mutation, compaction back to CSR,
   and two incremental-vs-rebuild re-convergence pairs. The
   [reconverge/*] burst is ~1% of the edges: it needs more endpoint BFS
   runs than the exact affected-source test allows, so the tracker
   re-sweeps every source. The [reconverge_small/*] burst is 8 ops, the
   size the test is for. Each incremental arm alternates its burst with
   the inverse so every iteration applies exactly one burst from a warm
   tracker, directly comparable to one full rebuild. *)
let dynamic_pair ctx =
  let open Bechamel in
  let module Delta = Broker_graph.Delta in
  let module Incr = Broker_core.Incremental in
  let module Stream = Broker_sim.Topo_stream in
  let g, is_broker, srcs = connectivity_setup ctx in
  let burst size =
    Stream.burst ~rng:(Broker_util.Xrandom.create 23) g ~size
  in
  let apply_to ops d =
    Array.iter
      (fun op ->
        ignore
          (match op with
          | Stream.Announce (u, v) -> Delta.add_edge d u v
          | Stream.Withdraw (u, v) -> Delta.remove_edge d u v))
      ops
  in
  let pair name ops =
    let fwd =
      Array.map
        (function
          | Stream.Announce (u, v) -> Incr.Add (u, v)
          | Stream.Withdraw (u, v) -> Incr.Remove (u, v))
        ops
    in
    let undo =
      Array.map
        (function
          | Incr.Add (u, v) -> Incr.Remove (u, v)
          | Incr.Remove (u, v) -> Incr.Add (u, v))
        fwd
    in
    let tracker = Incr.create g ~is_broker ~sources:srcs in
    let flip = ref false in
    [
      Test.make ~name:(name ^ "/incremental")
        (Staged.stage (fun () ->
             let b = if !flip then undo else fwd in
             flip := not !flip;
             ignore (Incr.apply tracker b)));
      Test.make ~name:(name ^ "/rebuild")
        (Staged.stage (fun () ->
             let d = Delta.create g in
             apply_to ops d;
             let g' = Delta.compact g d in
             ignore
               (Broker_core.Connectivity.eval_sources ~l_max:10 g' ~is_broker
                  srcs)));
    ]
  in
  let ops = burst (max 1 (Broker_graph.Graph.m g / 100)) in
  let dirty = Delta.create g in
  apply_to ops dirty;
  [
    Test.make ~name:"delta_apply"
      (Staged.stage (fun () ->
           let d = Delta.create g in
           apply_to ops d));
    Test.make ~name:"delta_compact"
      (Staged.stage (fun () -> ignore (Delta.compact g dirty)));
  ]
  @ pair "reconverge" ops
  @ pair "reconverge_small" (burst 8)

(* brokerstat hot paths: the sketch record (must bench at 0 allocated
   words — the admission loop calls it per session) and a window-flush
   cycle of the timeseries registry (restart + 256 adds across 64
   windows + flush). Values are precomputed so the staged thunks time
   the probes, not the value generation. *)
let brokerstat_tests () =
  let open Bechamel in
  let sk = Obs.Sketch.create () in
  let vals = Array.init 4096 (fun i -> i * 2654435761 land 0xFFFFF) in
  let cursor = ref 0 in
  let ts = Obs.Timeseries.series ~window:0.25 "bench.ts.window_flush" in
  [
    Test.make ~name:"sketch_record"
      (Staged.stage (fun () ->
           let j = !cursor land 4095 in
           incr cursor;
           Obs.Sketch.record sk vals.(j)));
    Test.make ~name:"window_flush"
      (Staged.stage (fun () ->
           Obs.Timeseries.restart ~window:0.25 ts;
           for k = 0 to 255 do
             Obs.Timeseries.add ts ~time:(float_of_int k *. 0.0625) 1
           done;
           Obs.Timeseries.flush ts));
  ]

let kernel_tests () =
  let open Bechamel in
  let ctx = E.Ctx.create ~scale:0.05 ~sources:32 ~seed:11 () in
  let g = E.Ctx.graph ctx in
  let n = Broker_graph.Graph.n g in
  let rng = Broker_util.Xrandom.create 3 in
  (* One full MS-BFS batch (a word's worth of lanes) on a reused
     workspace: the raw sweep kernel underneath connectivity/msbfs. *)
  let msbfs_ws = Broker_graph.Msbfs.workspace () in
  let msbfs_srcs =
    Broker_util.Sampling.without_replacement
      (Broker_util.Xrandom.create 5)
      ~n
      ~k:(min Broker_graph.Msbfs.lanes n)
  in
  [
    Test.make ~name:"bfs_full"
      (Staged.stage (fun () ->
           ignore (Broker_graph.Bfs.distances g (Broker_util.Xrandom.int rng n))));
    Test.make ~name:"msbfs_sweep"
      (Staged.stage (fun () ->
           Broker_graph.Msbfs.run msbfs_ws g msbfs_srcs ~lo:0
             ~len:(Array.length msbfs_srcs)));
    Test.make ~name:"pagerank"
      (Staged.stage (fun () -> ignore (Broker_graph.Pagerank.compute ~max_iter:20 g)));
    Test.make ~name:"kcore"
      (Staged.stage (fun () -> ignore (Broker_graph.Kcore.coreness g)));
    Test.make ~name:"celf_k100"
      (Staged.stage (fun () -> ignore (Broker_core.Greedy_mcb.celf g ~k:100)));
    Test.make ~name:"maxsg_k100"
      (Staged.stage (fun () -> ignore (Broker_core.Maxsg.run g ~k:100)));
  ]
  @ connectivity_pair ctx
  @ dynamic_pair ctx
  @ brokerstat_tests ()

let chaos_tests () =
  let open Bechamel in
  let ctx = E.Ctx.create ~scale:0.02 ~sources:32 ~seed:13 () in
  let topo = E.Ctx.topo ctx in
  let g = E.Ctx.graph ctx in
  let order = E.Ctx.maxsg_order ctx in
  let brokers = Array.sub order 0 (min 24 (Array.length order)) in
  let model = Broker_core.Traffic.gravity ~rng:(E.Ctx.rng ctx) g in
  let sessions =
    Broker_sim.Workload.generate ~rng:(E.Ctx.rng ctx) model ~n_sessions:2000
      Broker_sim.Workload.default_params
  in
  let horizon =
    (if Array.length sessions = 0 then 0.0
     else sessions.(Array.length sessions - 1).Broker_sim.Workload.arrival)
    +. 20.0
  in
  let scenario =
    Broker_sim.Faults.Independent { mtbf = horizon /. 6.0; mttr = 15.0 }
  in
  let gen () =
    Broker_sim.Faults.generate
      ~rng:(Broker_util.Xrandom.create 17)
      topo ~brokers ~horizon scenario
  in
  let faults = gen () in
  let config = Broker_sim.Simulator.degree_capacity g ~factor:0.25 in
  let chaos_run ~failover () =
    let chaos =
      { (Broker_sim.Simulator.default_chaos faults) with
        Broker_sim.Simulator.failover }
    in
    ignore (Broker_sim.Simulator.run ~chaos topo ~brokers ~sessions config)
  in
  [
    Test.make ~name:"faults_generate" (Staged.stage (fun () -> ignore (gen ())));
    Test.make ~name:"chaos_run_failover_on"
      (Staged.stage (chaos_run ~failover:true));
    Test.make ~name:"chaos_run_failover_off"
      (Staged.stage (chaos_run ~failover:false));
    Test.make ~name:"plain_run_no_chaos"
      (Staged.stage (fun () ->
           ignore (Broker_sim.Simulator.run topo ~brokers ~sessions config)));
  ]

(* Path-cache machinery per strategy. Dominated paths are precomputed so
   the compute closures are table lookups: the medians time the cache,
   not the BFS underneath it. *)
let cache_tests () =
  let open Bechamel in
  let ctx = E.Ctx.create ~scale:0.02 ~sources:32 ~seed:13 () in
  let g = E.Ctx.graph ctx in
  let n = Broker_graph.Graph.n g in
  let order = E.Ctx.maxsg_order ctx in
  let brokers = Array.sub order 0 (min 16 (Array.length order)) in
  let model = Broker_sim.Workload.zipf ~n () in
  let draw =
    Broker_util.Sampling.weighted_alias model.Broker_core.Traffic.masses
  in
  let rng = Broker_util.Xrandom.create 19 in
  let keys =
    Array.init 2000 (fun _ ->
        let src = draw rng in
        let dst = ref (draw rng) in
        while !dst = src do
          dst := draw rng
        done;
        (src, !dst))
  in
  let is_broker = Broker_core.Connectivity.of_brokers ~n brokers in
  let path_tbl = Hashtbl.create 2048 in
  Array.iter
    (fun (src, dst) ->
      if not (Hashtbl.mem path_tbl (src, dst)) then
        Hashtbl.replace path_tbl (src, dst)
          (match
             Broker_core.Dominating.find_dominated_path g ~is_broker src dst
           with
          | [] -> None
          | p -> Some (Array.of_list p)))
    keys;
  let fresh strategy =
    Broker_sim.Shard_cache.create ~strategy ~seed:7 ~n ~shards:brokers ()
  in
  let fill cache =
    Array.iter
      (fun (src, dst) ->
        ignore
          (Broker_sim.Shard_cache.find cache
             ~compute:(fun () -> Hashtbl.find path_tbl (src, dst))
             src dst))
      keys
  in
  let m = min 2 (Array.length brokers) in
  let churned = Array.sub brokers (Array.length brokers - m) m in
  List.concat_map
    (fun (label, strategy) ->
      let warm = fresh strategy in
      fill warm;
      [
        Test.make ~name:("insert/" ^ label)
          (Staged.stage (fun () ->
               let c = fresh strategy in
               fill c));
        Test.make ~name:("lookup/" ^ label)
          (Staged.stage (fun () -> fill warm));
        Test.make
          ~name:("invalidate/" ^ label)
          (Staged.stage (fun () ->
               let c = fresh strategy in
               fill c;
               Array.iter (Broker_sim.Shard_cache.crash c) churned;
               Array.iter (Broker_sim.Shard_cache.recover c) churned));
      ])
    [
      ("flush", Broker_sim.Shard_cache.Flush);
      ("modulo", Broker_sim.Shard_cache.Modulo);
      ( "ring",
        Broker_sim.Shard_cache.Ring
          { vnodes = Broker_sim.Shard_cache.default_vnodes } );
    ]

(* ------------------------------------------------------------------ *)
(* Timing statistics and the JSON perf trajectory                      *)
(* ------------------------------------------------------------------ *)

type kernel_stat = {
  name : string;
  median_ns : float;
  samples : int;
  minor_words : float;  (* median minor-heap words allocated per run *)
  major_words : float;  (* median words allocated directly on the major heap *)
}

let clock_label =
  Bechamel.Measure.label Bechamel.Toolkit.Instance.monotonic_clock

let minor_label =
  Bechamel.Measure.label Bechamel.Toolkit.Instance.minor_allocated

let major_label =
  Bechamel.Measure.label Bechamel.Toolkit.Instance.major_allocated

(* Median per-run value of one recorded measure — robust against the
   multi-modal noise (GC, frequency scaling) that skews a mean or an OLS
   fit on short CI runs, and what the BENCH_*.json trajectory records per
   kernel (time and allocation alike). *)
let median_of ~label (b : Bechamel.Benchmark.t) =
  let per_run =
    Array.map
      (fun m ->
        Bechamel.Measurement_raw.get ~label m /. Bechamel.Measurement_raw.run m)
      b.Bechamel.Benchmark.lr
  in
  Array.sort Float.compare per_run;
  let k = Array.length per_run in
  if k = 0 then 0.0
  else if k mod 2 = 1 then per_run.(k / 2)
  else (per_run.((k / 2) - 1) +. per_run.(k / 2)) /. 2.0

let run_suite ~quota name tests =
  let open Bechamel in
  let instances =
    Toolkit.Instance.[ monotonic_clock; minor_allocated; major_allocated ]
  in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second quota) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name tests) in
  let stats =
    Hashtbl.fold
      (fun key (b : Benchmark.t) acc ->
        {
          name = key;
          median_ns = median_of ~label:clock_label b;
          samples = Array.length b.Benchmark.lr;
          minor_words = median_of ~label:minor_label b;
          major_words = median_of ~label:major_label b;
        }
        :: acc)
      raw []
  in
  List.sort (fun a b -> String.compare a.name b.name) stats

let print_suite name stats =
  Printf.printf "\n-- Bechamel timings: %s (median) --\n%!" name;
  List.iter
    (fun s ->
      Printf.printf "%-44s %12.3f ms/run %14.0f minor-w %10.0f major-w\n"
        s.name (s.median_ns /. 1e6) s.minor_words s.major_words)
    stats

let find_stat stats suffix =
  List.find_opt
    (fun s ->
      let ls = String.length s.name and lx = String.length suffix in
      ls >= lx && String.sub s.name (ls - lx) lx = suffix)
    stats

(* slow-over-fast median ratio of a kernel pair — the headline numbers
   of this perf trajectory. *)
let pair_speedup stats ~slow ~fast =
  match (find_stat stats slow, find_stat stats fast) with
  | Some l, Some p when p.median_ns > 0.0 -> Some (l.median_ns /. p.median_ns)
  | _ -> None

let msbfs_speedup stats =
  pair_speedup stats ~slow:"connectivity/legacy" ~fast:"connectivity/msbfs"

let fullscale_speedup stats =
  pair_speedup stats ~slow:"connectivity_fullscale/legacy"
    ~fast:"connectivity_fullscale/msbfs"

let reconverge_speedup stats =
  pair_speedup stats ~slow:"reconverge/rebuild" ~fast:"reconverge/incremental"

let reconverge_small_speedup stats =
  pair_speedup stats ~slow:"reconverge_small/rebuild"
    ~fast:"reconverge_small/incremental"

(* [quota] is the per-kernel Bechamel time budget the suites ran with. *)
let write_json ~path ~quota ?(counters = []) suites =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"brokerset-bench/2\",\n";
  Printf.bprintf buf "  \"quota_s\": %.1f,\n" quota;
  Buffer.add_string buf "  \"suites\": {\n";
  let n_suites = List.length suites in
  List.iteri
    (fun i (suite_name, stats) ->
      Printf.bprintf buf "    %S: [\n" suite_name;
      let n = List.length stats in
      List.iteri
        (fun j s ->
          Printf.bprintf buf
            "      {\"name\": %S, \"median_ns\": %.1f, \"samples\": %d, \"minor_words\": %.1f, \"major_words\": %.1f}%s\n"
            s.name s.median_ns s.samples s.minor_words s.major_words
            (if j = n - 1 then "" else ","))
        stats;
      Printf.bprintf buf "    ]%s\n" (if i = n_suites - 1 then "" else ","))
    suites;
  Buffer.add_string buf "  },\n";
  if counters <> [] then begin
    Buffer.add_string buf "  \"counters\": {";
    List.iteri
      (fun i (k, v) ->
        Printf.bprintf buf "%s\"%s\": %d" (if i = 0 then "" else ", ") k v)
      counters;
    Buffer.add_string buf "},\n"
  end;
  let all_stats = List.concat_map snd suites in
  let derived =
    List.filter_map
      (fun (key, v) -> Option.map (fun s -> (key, s)) v)
      [
        ("msbfs_vs_legacy", msbfs_speedup all_stats);
        ("msbfs_vs_legacy_fullscale", fullscale_speedup all_stats);
        ("incremental_vs_rebuild", reconverge_speedup all_stats);
        ("incremental_small_vs_rebuild", reconverge_small_speedup all_stats);
      ]
  in
  Buffer.add_string buf "  \"derived\": {";
  List.iteri
    (fun i (key, s) ->
      Printf.bprintf buf "%s\"%s\": %.2f" (if i = 0 then "" else ", ") key s)
    derived;
  Buffer.add_string buf "}\n";
  Buffer.add_string buf "}\n";
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf));
  Printf.printf "wrote %s\n%!" path

(* Full-scale (REPRO_SCALE-sized) connectivity evaluation pair, hand-timed:
   the legacy path takes whole seconds per run out there, so a fixed small
   repetition count replaces Bechamel's sampling. This is the Table 1 /
   Fig 2a evaluation shape — a fixed source sample, each source
   contributing its exact distance row. *)
let fullscale_pair () =
  let ctx = E.Ctx.from_env () in
  let g = E.Ctx.graph ctx in
  let n = Broker_graph.Graph.n g in
  let brokers = Broker_core.Baselines.db g ~k:(min 1000 n) in
  let is_broker = Broker_core.Connectivity.of_brokers ~n brokers in
  let srcs =
    Broker_util.Sampling.without_replacement
      (Broker_util.Xrandom.create (E.Ctx.seed ctx + 7777))
      ~n
      ~k:(min (E.Ctx.sources ctx) n)
  in
  let reps = 3 in
  let timed name f =
    let ns = Array.make reps 0.0 in
    let minor = Array.make reps 0.0 in
    let major = Array.make reps 0.0 in
    for i = 0 to reps - 1 do
      let s0 = Gc.quick_stat () in
      let t0 = Unix.gettimeofday () in
      f ();
      let t1 = Unix.gettimeofday () in
      let s1 = Gc.quick_stat () in
      ns.(i) <- (t1 -. t0) *. 1e9;
      minor.(i) <- s1.Gc.minor_words -. s0.Gc.minor_words;
      major.(i) <- s1.Gc.major_words -. s0.Gc.major_words
    done;
    let med a =
      Array.sort Float.compare a;
      a.(reps / 2)
    in
    {
      name;
      median_ns = med ns;
      samples = reps;
      minor_words = med minor;
      major_words = med major;
    }
  in
  [
    timed "connectivity_fullscale/legacy" (fun () ->
        ignore
          (Broker_core.Connectivity.eval_sources_reference ~l_max:10 g
             ~is_broker srcs));
    timed "connectivity_fullscale/msbfs" (fun () ->
        ignore
          (Broker_core.Connectivity.eval_sources ~l_max:10 g ~is_broker srcs));
  ]

(* One instrumented pass of the default (MS-BFS) connectivity kernel at a
   fixed small scale: the deterministic Broker_obs counter fingerprint
   attached to the brokerset-bench/2 JSON, now including the msbfs.*
   sweep/word counters. Runs outside the timed iterations so
   Bechamel's adaptive sample counts cannot perturb the counts, and resets
   the registry first so earlier suites don't leak in. Empty under
   --profile obs-absent. *)
let counter_snapshot () =
  if not Obs.Control.available then []
  else begin
    let was_enabled = Obs.Control.enabled () in
    Obs.Control.set_enabled true;
    Obs.Metrics.reset ();
    let g, is_broker, srcs =
      connectivity_setup (E.Ctx.create ~scale:0.02 ~sources:32 ~seed:11 ())
    in
    ignore (Broker_core.Connectivity.eval_sources ~l_max:10 g ~is_broker srcs);
    let snap = Obs.Metrics.deterministic (Obs.Metrics.snapshot ()) in
    Obs.Control.set_enabled was_enabled;
    List.filter_map
      (fun (e : Obs.Metrics.entry) ->
        match e.Obs.Metrics.value with
        | Obs.Metrics.Counter v | Obs.Metrics.Gauge_max v ->
            Some (e.Obs.Metrics.name, v)
        | Obs.Metrics.Histogram _ -> None)
      snap
  end

(* CI obs-overhead job: time the small-scale connectivity pair alone. The
   job runs this twice — on the default build (probes compiled in,
   disabled) and on --profile obs-absent (probes constant-folded away) —
   and fails if the disabled median exceeds the absent one by more than
   1%. *)
let obs_overhead ~json () =
  let ctx = E.Ctx.create ~scale:0.02 ~sources:32 ~seed:11 () in
  let quota = 2.0 in
  let stats = run_suite ~quota "kernels" (connectivity_pair ctx) in
  let label =
    if Obs.Control.available then "kernels (obs compiled in, disabled)"
    else "kernels (obs absent)"
  in
  print_suite label stats;
  match json with
  | Some path -> write_json ~path ~quota [ ("kernels", stats) ]
  | None -> ()

let run_timings ~json ~fullscale () =
  let quota = 2.0 in
  let suites =
    [
      ("tables_and_figures", run_suite ~quota "tables_and_figures" (experiment_tests ()));
      ("kernels", run_suite ~quota "kernels" (kernel_tests ()));
      ("chaos", run_suite ~quota "chaos" (chaos_tests ()));
      ("cache", run_suite ~quota "cache" (cache_tests ()));
    ]
    @ (if fullscale then [ ("connectivity_fullscale", fullscale_pair ()) ] else [])
  in
  List.iter (fun (name, stats) -> print_suite name stats) suites;
  let all_stats = List.concat_map snd suites in
  (match msbfs_speedup all_stats with
  | Some s -> Printf.printf "\nconnectivity msbfs vs legacy: %.2fx\n" s
  | None -> ());
  (match fullscale_speedup all_stats with
  | Some s -> Printf.printf "connectivity full-scale msbfs vs legacy: %.2fx\n" s
  | None -> ());
  (match reconverge_speedup all_stats with
  | Some s -> Printf.printf "reconverge incremental vs rebuild: %.2fx\n" s
  | None -> ());
  (match reconverge_small_speedup all_stats with
  | Some s ->
      Printf.printf "reconverge (8-op burst) incremental vs rebuild: %.2fx\n" s
  | None -> ());
  match json with
  | Some path -> write_json ~path ~quota ~counters:(counter_snapshot ()) suites
  | None -> ()

(* CI perf gate: time the connectivity and dynamic re-convergence kernel
   pairs at small scale and fail unless (a) the bit-parallel MS-BFS engine
   beats the legacy filtered-BFS reference and (b) the incremental
   tracker beats a full compact-and-re-evaluate rebuild, both for a ~1%
   of edges burst (the re-sweep-everything fallback) and for an 8-op
   burst (the exact affected-source test). *)
let perf_smoke ~json () =
  let ctx = E.Ctx.create ~scale:0.02 ~sources:32 ~seed:11 () in
  let quota = 1.0 in
  let stats =
    run_suite ~quota "kernels"
      (connectivity_pair ctx @ dynamic_pair ctx @ brokerstat_tests ())
  in
  print_suite "kernels (perf smoke)" stats;
  (match json with
  | Some path ->
      write_json ~path ~quota ~counters:(counter_snapshot ()) [ ("kernels", stats) ]
  | None -> ());
  let gate what ~than = function
    | Some s when s > 1.0 ->
        Printf.printf "perf-smoke OK: %s is %.2fx faster than %s\n" what s than
    | Some s ->
        Printf.printf "perf-smoke FAIL: %s is not faster than %s (%.2fx)\n" what
          than s;
        exit 1
    | None ->
        Printf.eprintf "perf-smoke FAIL: %s kernels missing\n" what;
        exit 1
  in
  gate "msbfs engine" ~than:"legacy" (msbfs_speedup stats);
  gate "incremental re-convergence" ~than:"rebuild" (reconverge_speedup stats);
  gate "incremental re-convergence (8-op burst)" ~than:"rebuild"
    (reconverge_small_speedup stats)

let () =
  (* REPRO_LOG=info|debug enables library progress logging on stderr. *)
  (match Sys.getenv_opt "REPRO_LOG" with
  | Some level ->
      Logs.set_reporter (Logs.format_reporter ());
      Logs.set_level
        (match String.lowercase_ascii level with
        | "debug" -> Some Logs.Debug
        | "warning" -> Some Logs.Warning
        | _ -> Some Logs.Info)
  | None -> ());
  (* REPRO_TRACE=FILE arms the span ring for the whole bench run; the
     Chrome trace is flushed by the trailing top-level binding below. *)
  (match Sys.getenv_opt "REPRO_TRACE" with
  | Some path when path <> "" ->
      Obs.Control.set_enabled true;
      Obs.Trace.arm ()
  | Some _ | None -> ());
  let rec parse flags json ids = function
    | [] -> (List.rev flags, json, List.rev ids)
    | [ "--json" ] ->
        prerr_endline "--json requires a file argument";
        exit 2
    | "--json" :: path :: rest -> parse flags (Some path) ids rest
    | a :: rest when String.length a > 2 && String.sub a 0 2 = "--" ->
        parse (a :: flags) json ids rest
    | a :: rest -> parse flags json (a :: ids) rest
  in
  let flags, json, ids = parse [] None [] (List.tl (Array.to_list Sys.argv)) in
  let has f = List.mem f flags in
  if has "--list" then
    List.iter
      (fun (e : E.All.experiment) ->
        Printf.printf "%-18s %s\n" e.E.All.id e.E.All.description)
      E.All.experiments
  else if has "--perf-smoke" then perf_smoke ~json ()
  else if has "--obs-overhead" then obs_overhead ~json ()
  else begin
    let timings_only = has "--timings" in
    if not timings_only then begin
      let ctx = E.Ctx.from_env () in
      Printf.printf
        "Reproduction run: scale=%.3g sources=%d seed=%d (%d experiments)\n%!"
        (E.Ctx.scale ctx) (E.Ctx.sources ctx) (E.Ctx.seed ctx)
        (List.length E.All.experiments);
      match ids with
      | [] ->
          (* Stream each report as it completes so long runs stay
             observable; text output is byte-identical to the historical
             print-as-you-go harness. *)
          ignore
            (E.All.run_all
               ~emit:(fun _ r ->
                 Report_text.print r;
                 Report_text.flush ())
               ctx)
      | ids ->
          List.iter
            (fun id ->
              match E.All.run_one ctx id with
              | Ok r ->
                  Report_text.print r;
                  Report_text.flush ()
              | Error msg ->
                  prerr_endline msg;
                  exit 2)
            ids
    end;
    if timings_only || ids = [] then
      run_timings ~json ~fullscale:(has "--fullscale") ()
  end

let () =
  match Sys.getenv_opt "REPRO_TRACE" with
  | Some path when path <> "" && Obs.Trace.armed () ->
      if Obs.Trace.write ~path then
        Printf.eprintf "trace: %d events (%d dropped) -> %s\n%!"
          (Obs.Trace.recorded ()) (Obs.Trace.dropped ()) path
  | Some _ | None -> ()
