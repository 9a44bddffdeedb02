(* Integration smoke tests: every table/figure reproduction runs end to end
   on a tiny topology, and the shared context's invariants hold. Output is
   diverted so `dune runtest` stays readable. *)

open Helpers
module E = Broker_experiments

let tiny_ctx () = E.Ctx.create ~scale:0.008 ~sources:24 ~seed:99 ()

let with_quiet_stdout f =
  let saved = Unix.dup Unix.stdout in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  flush stdout;
  Unix.dup2 devnull Unix.stdout;
  Unix.close devnull;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f

let test_ctx_caching () =
  let ctx = tiny_ctx () in
  let t1 = E.Ctx.topo ctx and t2 = E.Ctx.topo ctx in
  check_bool "topology cached" true (t1 == t2);
  let o1 = E.Ctx.maxsg_order ctx and o2 = E.Ctx.maxsg_order ctx in
  check_bool "order cached" true (o1 == o2)

let test_ctx_scale_count () =
  let ctx = E.Ctx.create ~scale:0.1 () in
  check_int "scaled" 100 (E.Ctx.scale_count ctx 1000);
  check_int "min 1" 1 (E.Ctx.scale_count ctx 3)

let test_ctx_saturated_monotone () =
  let ctx = tiny_ctx () in
  let order = E.Ctx.maxsg_order ctx in
  let k2 = min 4 (Array.length order) and k1 = min 2 (Array.length order) in
  let s1 = E.Ctx.saturated ctx ~brokers:(Array.sub order 0 k1) in
  let s2 = E.Ctx.saturated ctx ~brokers:(Array.sub order 0 k2) in
  check_bool "monotone in brokers" true (s2 >= s1 -. 1e-12)

let test_ctx_free_dominates () =
  let ctx = tiny_ctx () in
  let order = E.Ctx.maxsg_order ctx in
  let restricted = E.Ctx.saturated ctx ~brokers:order in
  let free = (E.Ctx.free_curve ctx).Broker_core.Connectivity.saturated in
  check_bool "free >= restricted" true (free >= restricted -. 1e-12)

let test_table1_rows () =
  let ctx = tiny_ctx () in
  let rows = with_quiet_stdout (fun () -> E.Table1.compute ctx) in
  check_int "5 rows" 5 (List.length rows);
  List.iter
    (fun (r : E.Table1.row) ->
      check_bool "coverage in [0,1]" true
        (r.E.Table1.coverage >= 0.0 && r.E.Table1.coverage <= 1.0))
    rows

let test_table3_rows () =
  let ctx = tiny_ctx () in
  let rows = with_quiet_stdout (fun () -> E.Table3.compute ctx) in
  check_int "5 topologies" 5 (List.length rows)

let test_fig2a_result () =
  let ctx = tiny_ctx () in
  let r = with_quiet_stdout (fun () -> E.Fig2a.compute ~runs:20 ctx) in
  check_int "runs" 20 (Array.length r.E.Fig2a.sizes);
  check_bool "sets are large" true (r.E.Fig2a.mean_fraction > 0.2)

let test_fig3_correlation_decays () =
  let ctx = tiny_ctx () in
  let small = with_quiet_stdout (fun () -> E.Fig3.compute ~candidates:24 ctx ~base_k:2) in
  check_bool "some candidates" true (Array.length small.E.Fig3.points > 4);
  check_bool "correlation defined" true
    (Float.is_finite small.E.Fig3.correlation)

let test_ext_chaos_rows () =
  let module R = E.Ext_chaos in
  let ctx = tiny_ctx () in
  let rows = with_quiet_stdout (fun () -> R.compute ~n_sessions:800 ctx) in
  let n_keeps = List.length R.keeps in
  check_int "3 alliance sizes x rate sweep" (3 * n_keeps) (List.length rows);
  List.iter
    (fun (r : R.row) ->
      check_bool "availability in [0,1]" true
        (r.R.availability >= 0.0 && r.R.availability <= 1.0);
      check_bool "delivered rates in [0,1]" true
        (r.R.delivered_on >= 0.0 && r.R.delivered_on <= 1.0
        && r.R.delivered_off >= 0.0 && r.R.delivered_off <= 1.0);
      if r.R.keep = 0.0 then begin
        check_float "full availability at zero rate" 1.0 r.R.availability;
        check_int "no drops at zero rate" 0 r.R.dropped_off;
        check_int "no reroutes at zero rate" 0 r.R.failed_over;
        check_float "failover irrelevant at zero rate" r.R.delivered_off
          r.R.delivered_on
      end
      else begin
        (* The X7 acceptance bar: failover recovers strictly more delivered
           sessions at every nonzero fault rate. *)
        check_bool "failover strictly wins" true
          (r.R.delivered_on > r.R.delivered_off);
        check_bool "some sessions rerouted" true (r.R.failed_over > 0);
        check_bool "drops without failover" true (r.R.dropped_off > 0)
      end)
    rows;
  (* Within each alliance size (keeps ascend), availability degrades
     monotonically — guaranteed sample-wise by the coupled thinning. *)
  List.iteri
    (fun i group_start ->
      ignore i;
      let group = List.filteri (fun j _ -> j >= group_start && j < group_start + n_keeps) rows in
      ignore
        (List.fold_left
           (fun prev (r : R.row) ->
             check_bool "availability monotone in fault rate" true
               (r.R.availability <= prev +. 1e-12);
             r.R.availability)
           1.0 group))
    [ 0; n_keeps; 2 * n_keeps ];
  (* A fresh identically-seeded context replays the exact rows (Ctx.rng
     streams are counter-derived, so reuse of the same context would not). *)
  let rows2 = with_quiet_stdout (fun () -> R.compute ~n_sessions:800 (tiny_ctx ())) in
  check_bool "seed-deterministic" true (rows = rows2)

let test_ext_churn_cache_rows () =
  let module R = E.Ext_churn_cache in
  let run () =
    with_quiet_stdout (fun () -> R.compute ~requests_per_phase:1200 (tiny_ctx ()))
  in
  let phases, remaps = run () in
  (* Shape: strategies in registry order, phases in schedule order. *)
  let expect_order =
    List.concat_map
      (fun (name, _) -> List.map (fun p -> (name, p)) R.phase_names)
      R.strategies
  in
  check_bool "phase rows ordered by strategy then phase" true
    (List.map (fun (r : R.phase_row) -> (r.R.strategy, r.R.phase)) phases
    = expect_order);
  check_int "one remap row per strategy" (List.length R.strategies)
    (List.length remaps);
  let row s p =
    List.find
      (fun (r : R.phase_row) ->
        String.equal r.R.strategy s && String.equal r.R.phase p)
      phases
  in
  List.iter
    (fun (r : R.phase_row) ->
      check_bool "lookups positive" true (r.R.lookups > 0);
      check_bool "hit rate in [0,1]" true
        (r.R.hit_rate >= 0.0 && r.R.hit_rate <= 1.0))
    phases;
  (* Warm phase: no churn yet, so every strategy replays identically. *)
  let warm_flush = (row "flush" "warm").R.hit_rate in
  List.iter
    (fun (name, _) ->
      check_float (name ^ " warm hit rate matches flush") warm_flush
        (row name "warm").R.hit_rate)
    R.strategies;
  (* The X8 acceptance bar: consistent hashing holds a strictly higher
     hit rate than static modulo through churn AND after recovery. *)
  check_bool "ring beats modulo under churn" true
    ((row "ring" "churn").R.hit_rate > (row "modulo" "churn").R.hit_rate);
  check_bool "ring beats modulo after recovery" true
    ((row "ring" "recovered").R.hit_rate > (row "modulo" "recovered").R.hit_rate);
  (* Remap fractions: ring ~ m/n, modulo ~ (n-1)/n, flush has no owners. *)
  let remap s = List.find (fun (r : R.remap_row) -> String.equal r.R.strategy s) remaps in
  let ring = remap "ring" and md = remap "modulo" and fl = remap "flush" in
  check_bool "flush remap undefined" true (Float.is_nan fl.R.remap_fraction);
  check_bool "modulo remaps most keys" true (md.R.remap_fraction >= 0.5);
  check_bool "ring remap bounded" true
    (ring.R.remap_fraction
    <= 3.5 *. float_of_int ring.R.crashed_shards /. float_of_int ring.R.shards);
  check_bool "ring remaps less than modulo" true
    (ring.R.remap_fraction < md.R.remap_fraction);
  (* Deterministic: a fresh identically-seeded context replays the rows
     exactly, and the row values are domain-count independent. *)
  let d1 = with_domains "1" run and d4 = with_domains "4" run in
  check_bool "seed-deterministic" true (compare (phases, remaps) d1 = 0);
  check_bool "identical across REPRO_DOMAINS" true (compare d1 d4 = 0);
  (* The same schedule end to end through the simulator. *)
  let sims = with_quiet_stdout (fun () -> R.compute_sim ~n_sessions:600 (tiny_ctx ())) in
  check_bool "one sim row per strategy, registry order" true
    (List.map (fun (r : R.sim_row) -> r.R.strategy) sims
    = List.map fst R.strategies);
  List.iter
    (fun (r : R.sim_row) ->
      check_bool "delivered in [0,1]" true
        (r.R.delivered >= 0.0 && r.R.delivered <= 1.0);
      check_bool "sim hit rate in [0,1]" true
        (r.R.sim_hit_rate >= 0.0 && r.R.sim_hit_rate <= 1.0))
    sims;
  (* Only the legacy strategy flushes on recovery; sharded ones never do. *)
  List.iter
    (fun (r : R.sim_row) ->
      if not (String.equal r.R.strategy "flush") then
        check_int (r.R.strategy ^ " never flushes") 0 r.R.flushed)
    sims

(* X10: brokerstat phase timelines. *)
let test_ext_timeline_rows () =
  let module R = E.Ext_timeline in
  let run () = R.compute ~n_sessions:500 (tiny_ctx ()) in
  let r = run () in
  check_bool "horizon positive" true (r.R.horizon > 0.0);
  check_bool "window is horizon/40" true
    (Float.abs (r.R.window -. (r.R.horizon /. 40.0)) < 1e-9);
  check_int "two kinds x three phases of latency rows"
    (2 * List.length R.phase_names)
    (List.length r.R.latencies);
  List.iter
    (fun (row : R.latency_row) ->
      check_bool "samples non-negative" true (row.R.samples >= 0);
      check_bool "p50 <= p90" true (row.R.p50 <= row.R.p90 +. 1e-9);
      check_bool "p90 <= p99" true (row.R.p90 <= row.R.p99 +. 1e-9);
      check_bool "p99 <= p99.9" true (row.R.p99 <= row.R.p999 +. 1e-9))
    r.R.latencies;
  (* Every delivered session contributes exactly one e2e sample. *)
  let e2e_samples =
    List.fold_left
      (fun acc (row : R.latency_row) ->
        if String.equal row.R.kind "e2e" then acc + row.R.samples else acc)
      0 r.R.latencies
  in
  let s = r.R.stats in
  check_int "e2e samples = delivered sessions"
    (s.Broker_sim.Simulator.admitted
    - s.Broker_sim.Simulator.dropped_midflight)
    e2e_samples;
  check_bool "throughput rows in phase order" true
    (List.map (fun (row : R.throughput_row) -> row.R.tp_phase) r.R.throughput
    = R.phase_names);
  List.iter
    (fun (row : R.throughput_row) ->
      check_bool "duration positive" true (row.R.duration > 0.0);
      check_bool "rates non-negative" true
        (row.R.admitted_rate >= 0.0
        && row.R.delivered_rate >= 0.0
        && row.R.rejected_rate >= 0.0);
      check_bool "hit rate in [0,1]" true
        (row.R.hit_rate >= 0.0 && row.R.hit_rate <= 1.0);
      check_bool "recomputes non-negative" true (row.R.recomputes >= 0))
    r.R.throughput;
  check_bool "recovery after the all-clear" true
    (Float.is_nan r.R.recovery_time || r.R.recovery_time >= 0.0);
  check_bool "delivered series present" true
    (Array.length r.R.delivered_series > 0);
  (* Bitwise determinism: identical results on a fresh identically-seeded
     context, and independent of the domain count. *)
  let d1 = with_domains "1" run and d4 = with_domains "4" run in
  check_bool "seed-deterministic" true (compare r d1 = 0);
  check_bool "identical across REPRO_DOMAINS" true (compare d1 d4 = 0)

let test_all_experiments_run () =
  let ctx = tiny_ctx () in
  List.iter
    (fun (e : E.All.experiment) ->
      let r = with_quiet_stdout (fun () -> E.All.report_of ctx e) in
      check_bool "report named after id" true
        (String.equal (Broker_report.Report.name r) e.id);
      check_bool "run parameters attached" true
        (Broker_report.Report.meta r
        = [ ("scale", 0.008); ("sources", 24.0); ("seed", 99.0) ]))
    E.All.experiments

(* X10 reads its numbers off the simulator's timeline series, then
   restarts them: once its report is built no window, and so no window
   sketch, is left in the global registry. *)
let test_ext_timeline_releases_series () =
  match E.All.find "ext_timeline" with
  | None -> Alcotest.fail "ext_timeline not registered"
  | Some e ->
      ignore (E.All.report_of (tiny_ctx ()) e);
      let series = Broker_obs.Timeseries.all () in
      List.iter
        (fun name ->
          match
            List.find_opt (fun ts -> String.equal (Broker_obs.Timeseries.name ts) name) series
          with
          | None -> Alcotest.fail (name ^ " not registered")
          | Some ts ->
              check_int (name ^ " released") 0
                (Array.length (Broker_obs.Timeseries.points ts)))
        Broker_sim.Simulator.timeline_names

let test_lookup_unknown () =
  check_bool "unknown id" true (E.All.find "nonsense" = None);
  check_bool "empty id" true (E.All.find "" = None)

let test_find () =
  check_bool "case insensitive" true (E.All.find "TABLE1" <> None);
  check_bool "unknown" true (E.All.find "nope" = None)

(* REPRO_* knobs: unset or empty keeps the default, anything else must
   parse and lie in range. *)
let with_repro scale sources seed f =
  with_env "REPRO_SCALE" scale (fun () ->
      with_env "REPRO_SOURCES" sources (fun () -> with_env "REPRO_SEED" seed f))

let test_env_defaults () =
  let ctx = with_repro "" "" "" E.Ctx.from_env in
  check_float "scale" 1.0 (E.Ctx.scale ctx);
  check_int "sources" 192 (E.Ctx.sources ctx);
  check_int "seed" 42 (E.Ctx.seed ctx);
  let ctx = with_repro "0.02" "48" "7" E.Ctx.from_env in
  check_float "scale set" 0.02 (E.Ctx.scale ctx);
  check_int "sources set" 48 (E.Ctx.sources ctx);
  check_int "seed set" 7 (E.Ctx.seed ctx)

let env_rejected ~scale ~sources ~seed msg () =
  with_repro scale sources seed (fun () ->
      Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
          ignore (E.Ctx.from_env ())))

let suite =
  [
    ( "experiments.ctx",
      [
        Alcotest.test_case "caching" `Quick test_ctx_caching;
        Alcotest.test_case "scale_count" `Quick test_ctx_scale_count;
        Alcotest.test_case "saturated monotone" `Quick test_ctx_saturated_monotone;
        Alcotest.test_case "free dominates" `Quick test_ctx_free_dominates;
      ] );
    ( "experiments.results",
      [
        Alcotest.test_case "table1 rows" `Quick test_table1_rows;
        Alcotest.test_case "table3 rows" `Quick test_table3_rows;
        Alcotest.test_case "fig2a" `Quick test_fig2a_result;
        Alcotest.test_case "fig3" `Quick test_fig3_correlation_decays;
        Alcotest.test_case "ext_chaos" `Quick test_ext_chaos_rows;
        Alcotest.test_case "ext_churn_cache" `Quick test_ext_churn_cache_rows;
        Alcotest.test_case "ext_timeline" `Quick test_ext_timeline_rows;
        Alcotest.test_case "ext_timeline releases its series" `Quick
          test_ext_timeline_releases_series;
        Alcotest.test_case "lookup unknown" `Quick test_lookup_unknown;
        Alcotest.test_case "find" `Quick test_find;
      ] );
    ( "experiments.env",
      [
        Alcotest.test_case "unset or empty" `Quick test_env_defaults;
        Alcotest.test_case "REPRO_SCALE not a number" `Quick
          (env_rejected ~scale:"0,02" ~sources:"" ~seed:""
             "REPRO_SCALE: expected a number in (0, 1], got \"0,02\"");
        Alcotest.test_case "REPRO_SCALE out of range" `Quick
          (env_rejected ~scale:"2" ~sources:"" ~seed:""
             "REPRO_SCALE: expected a number in (0, 1], got \"2\"");
        Alcotest.test_case "REPRO_SOURCES not an integer" `Quick
          (env_rejected ~scale:"" ~sources:"4.5" ~seed:""
             "REPRO_SOURCES: expected an integer >= 1, got \"4.5\"");
        Alcotest.test_case "REPRO_SOURCES out of range" `Quick
          (env_rejected ~scale:"" ~sources:"-5" ~seed:""
             "REPRO_SOURCES: expected an integer >= 1, got \"-5\"");
        Alcotest.test_case "REPRO_SEED not an integer" `Quick
          (env_rejected ~scale:"" ~sources:"" ~seed:"4x2"
             "REPRO_SEED: expected an integer, got \"4x2\"");
      ] );
    ( "experiments.integration",
      [ Alcotest.test_case "all experiments run" `Slow test_all_experiments_run ] );
  ]
