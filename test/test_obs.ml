(* Tests for the Broker_obs instrumentation layer: the disabled-mode
   no-op guarantee, histogram bucketing, the span ring (nesting and
   wraparound), the Chrome trace sink, and counter determinism across
   runs and REPRO_DOMAINS settings. *)

open Helpers
module Obs = Broker_obs
module Control = Obs.Control
module Metrics = Obs.Metrics
module Trace = Obs.Trace
module Conn = Broker_core.Connectivity

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Every test leaves the global instrumentation state exactly as the
   rest of the suite expects it: disabled, disarmed, zeroed. *)
let with_obs_state f =
  Fun.protect
    ~finally:(fun () ->
      Trace.disarm ();
      Control.set_enabled false;
      Metrics.reset ())
    f

(* ---------- disabled-mode no-op ---------- *)

let c_disabled = Metrics.counter "test.obs.disabled_counter"

let test_disabled_noop () =
  with_obs_state @@ fun () ->
  Control.set_enabled false;
  Metrics.reset ();
  Metrics.incr c_disabled;
  Metrics.add c_disabled 41;
  (match Metrics.find (Metrics.snapshot ()) "test.obs.disabled_counter" with
  | Some { Metrics.value = Metrics.Counter v; _ } ->
      check_int "disabled counter never moves" 0 v
  | _ -> Alcotest.fail "counter not registered");
  let path = Filename.temp_file "obs_disabled" ".json" in
  Sys.remove path;
  check_bool "write without arm reports nothing" false (Trace.write ~path);
  check_bool "no trace file appears" false (Sys.file_exists path)

(* ---------- histogram buckets ---------- *)

let h_edges = Metrics.histogram "test.obs.hist_edges"

let test_histogram_buckets () =
  with_obs_state @@ fun () ->
  (* Bucket 0 holds v <= 0; bucket i >= 1 holds [2^(i-1), 2^i); the
     last of the 63 buckets absorbs max_int. *)
  Control.set_enabled true;
  Metrics.reset ();
  List.iter (Metrics.observe h_edges) [ -3; 0; 1; 2; 3; 4; 7; 8; max_int ];
  match Metrics.find (Metrics.snapshot ()) "test.obs.hist_edges" with
  | Some { Metrics.value = Metrics.Histogram b; _ } ->
      check_int "63 buckets" 63 (Array.length b);
      check_int "bucket 0 count" 2 b.(0);
      check_int "bucket 1 count" 1 b.(1);
      check_int "bucket 2 count" 2 b.(2);
      check_int "bucket 3 count" 2 b.(3);
      check_int "bucket 4 count" 1 b.(4);
      check_int "max_int saturates" 1 b.(62);
      check_int "total observations" 9 (Array.fold_left ( + ) 0 b)
  | _ -> Alcotest.fail "histogram not registered"

(* ---------- span ring: nesting and wraparound ---------- *)

let t_outer = Trace.scope "test.obs.outer"
let t_inner = Trace.scope "test.obs.inner"

let test_span_ring () =
  with_obs_state @@ fun () ->
  Control.set_enabled true;
  Trace.arm ~capacity:64 ();
  let t0 = Trace.enter () in
  Trace.with_span t_inner (fun () -> ());
  Trace.leave t_outer t0;
  check_int "nested spans recorded" 2 (Trace.recorded ());
  check_int "nothing dropped yet" 0 (Trace.dropped ());
  for _ = 1 to 200 do
    Trace.with_span t_inner (fun () -> ())
  done;
  check_int "ring holds exactly its capacity" 64 (Trace.recorded ());
  check_int "overflow counted as dropped" (202 - 64) (Trace.dropped ())

(* ---------- Chrome trace JSON ---------- *)

let field name = function
  | Broker_report.Report_json.Obj kvs -> List.assoc_opt name kvs
  | _ -> None

let test_chrome_trace_json () =
  with_obs_state @@ fun () ->
  Control.set_enabled true;
  Trace.arm ();
  (* Fan out over 4 explicit domains so the trace carries several tids
     (one per worker domain) for the thread-metadata assertions. *)
  let total =
    Broker_util.Parallel.strided ~domains:4 ~n:64
      ~worker:(fun ~start ~step ->
        let s = ref 0 and i = ref start in
        while !i < 64 do
          s := !s + !i;
          i := !i + step
        done;
        !s)
      ~merge:( + ) 0
  in
  check_int "parallel result correct" (64 * 63 / 2) total;
  Trace.with_span t_outer (fun () -> ());
  Trace.sample t_inner 17;
  match Broker_report.Report_json.json_of_string (Trace.to_chrome_json ()) with
  | Error msg -> Alcotest.fail ("trace is not valid JSON: " ^ msg)
  | Ok doc -> (
      match field "traceEvents" doc with
      | Some (Broker_report.Report_json.List events) ->
          check_bool "has events" true (List.length events > 0);
          let tids = Hashtbl.create 8 in
          List.iter
            (fun ev ->
              (match field "ph" ev with
              | Some (Broker_report.Report_json.Str ph) ->
                  check_bool "known phase" true
                    (List.mem ph [ "X"; "C"; "M" ]);
                  (match (ph, field "tid" ev) with
                  | "X", Some (Broker_report.Report_json.Num tid) ->
                      Hashtbl.replace tids (int_of_float tid) ()
                  | _ -> ())
              | _ -> Alcotest.fail "event without ph");
              match (field "pid" ev, field "name" ev) with
              | Some _, Some _ -> ()
              | _ -> Alcotest.fail "event missing pid or name")
            events;
          check_bool "spans from at least two domains" true
            (Hashtbl.length tids >= 2)
      | _ -> Alcotest.fail "no traceEvents array")

(* ---------- counter determinism ---------- *)

(* A deterministic snapshot rendered to strings: Alcotest diffs lists of
   strings legibly, and rendering avoids polymorphic equality on the
   histogram payload arrays. *)
let render_deterministic () =
  List.map
    (fun (e : Metrics.entry) ->
      let v =
        match e.Metrics.value with
        | Metrics.Counter v -> string_of_int v
        | Metrics.Gauge_max v -> "max:" ^ string_of_int v
        | Metrics.Histogram b ->
            String.concat "," (Array.to_list (Array.map string_of_int b))
      in
      e.Metrics.name ^ "=" ^ v)
    (Metrics.deterministic (Metrics.snapshot ()))

let test_counter_determinism () =
  with_obs_state @@ fun () ->
  Control.set_enabled true;
  let t = small_internet ~seed:9 ~scale:0.01 () in
  let g = t.Broker_topo.Topology.graph in
  let n = G.n g in
  let brokers = Broker_core.Baselines.db g ~k:(min 50 n) in
  let is_broker = Conn.of_brokers ~n brokers in
  let sources = Array.init (min 32 n) (fun i -> i) in
  let run_snap domains =
    Metrics.reset ();
    ignore (with_domains domains (fun () ->
        Conn.eval_sources ~l_max:10 g ~is_broker sources));
    render_deterministic ()
  in
  let s1 = run_snap "1" in
  let s1' = run_snap "1" in
  Alcotest.(check (list string)) "identical across two runs" s1 s1';
  let s4 = run_snap "4" in
  Alcotest.(check (list string)) "identical across REPRO_DOMAINS" s1 s4;
  check_bool "snapshot is non-trivial" true
    (List.exists
       (fun line ->
         String.starts_with ~prefix:"msbfs.sweeps=" line
         && not (String.equal line "msbfs.sweeps=0"))
       s1)

(* The closure traversals count one run per call and the vertices it
   reached: a 5-vertex path with one isolated vertex reaches 4 of 5 from
   vertex 0. *)
let test_bfs_counters () =
  with_obs_state @@ fun () ->
  Control.set_enabled true;
  Metrics.reset ();
  let g = G.of_edges ~n:5 [| (0, 1); (1, 2); (2, 3) |] in
  let counter name =
    match Metrics.find (Metrics.snapshot ()) name with
    | Some { Metrics.value = Metrics.Counter v; _ } -> v
    | _ -> Alcotest.fail (name ^ " not registered")
  in
  let runs = counter "bfs.runs" and settled = counter "bfs.settled" in
  let reached =
    Array.fold_left
      (fun a d -> if d >= 0 then a + 1 else a)
      0
      (Broker_graph.Bfs.distances g 0)
  in
  check_int "reached" 4 reached;
  check_int "bfs.runs + 1" (runs + 1) (counter "bfs.runs");
  check_int "bfs.settled + reached" (settled + reached) (counter "bfs.settled")

(* ---------- quantile sketch ---------- *)

module Sketch = Obs.Sketch
module Ts = Obs.Timeseries
module X = Broker_util.Xrandom

let test_sketch_index () =
  (* sub_bits = 0 degenerates to the Metrics histogram bucketing: 0 for
     v <= 0, otherwise the bit length of v. *)
  let sk0 = Sketch.create ~sub_bits:0 () in
  check_int "histogram cells" 63 (Sketch.cells sk0);
  List.iter
    (fun (v, bucket) ->
      check_int (Printf.sprintf "sub_bits 0 index %d" v) bucket
        (Sketch.index sk0 v))
    [
      (min_int, 0); (-3, 0); (0, 0); (1, 1); (2, 2); (3, 2); (4, 3); (7, 3);
      (8, 4); (1023, 10); (1024, 11); (max_int, 62);
    ];
  let sk = Sketch.create () in
  check_int "default cells" ((63 - 5) * 32) (Sketch.cells sk);
  (* Below 2^sub_bits every value owns its cell exactly. *)
  for v = 0 to 31 do
    check_int "exact-region index" v (Sketch.index sk v);
    check_int "exact-region lower bound" v (Sketch.lower_bound sk v)
  done;
  (* lower_bound inverts index: the cell holding v starts at or below v
     and the next cell starts strictly above it. *)
  List.iter
    (fun v ->
      let i = Sketch.index sk v in
      check_bool "cell starts at or below v" true (Sketch.lower_bound sk i <= v);
      if i + 1 < Sketch.cells sk then
        check_bool "next cell starts above v" true
          (v < Sketch.lower_bound sk (i + 1)))
    [ 31; 32; 33; 100; 1000; 65535; 65536; 123_456_789; max_int / 2; max_int ]

let q_test ?(count = 60) name arb law =
  qcheck (QCheck.Test.make ~count ~name arb law)

(* The documented bound against the exact oracle: pick integral ranks
   (q = j/(n-1)) so Broker_util.Stats.quantile degenerates to the exact
   order statistic v, then l <= v < l * (1 + 2^-sub_bits). *)
let sketch_quantile_vs_oracle =
  q_test "sketch quantile within documented bound of Stats.quantile"
    QCheck.(pair (int_range 0 100_000) (int_range 2 400))
    (fun (seed, n) ->
      let rng = X.create seed in
      let xs = Array.init n (fun _ -> X.int rng 1_000_000) in
      let sk = Sketch.create () in
      Array.iter (Sketch.record sk) xs;
      let fs = Array.map float_of_int xs in
      let ranks = [ 0; (n - 1) / 4; (n - 1) / 2; n - 2; n - 1 ] in
      List.for_all
        (fun j ->
          let q = float_of_int j /. float_of_int (n - 1) in
          let oracle = Broker_util.Stats.quantile fs q in
          let l = float_of_int (Sketch.quantile sk q) in
          l <= oracle +. 1e-6 && oracle < (l *. (1.0 +. (1.0 /. 32.0))) +. 1e-6)
        ranks)

let sketch_merge_laws =
  q_test "sketch merge is commutative and associative"
    QCheck.(triple (int_range 0 100_000) (int_range 1 300) (int_range 1 300))
    (fun (seed, na, nb) ->
      let mk seed n =
        let rng = X.create seed in
        let sk = Sketch.create () in
        for _ = 1 to n do
          Sketch.record sk (X.int rng 1_000_000)
        done;
        sk
      in
      let a () = mk seed na
      and b () = mk (seed + 1) nb
      and c () = mk (seed + 2) (na + nb) in
      let ab = a () in
      Sketch.merge ~into:ab (b ());
      let ba = b () in
      Sketch.merge ~into:ba (a ());
      let commutes = Sketch.counts ab = Sketch.counts ba in
      let abc = ab in
      Sketch.merge ~into:abc (c ());
      let bc = b () in
      Sketch.merge ~into:bc (c ());
      let a_bc = a () in
      Sketch.merge ~into:a_bc bc;
      commutes
      && Sketch.counts abc = Sketch.counts a_bc
      && Sketch.count abc = na + nb + (na + nb))

let test_sketch_validation () =
  let sk = Sketch.create () in
  for v = 0 to 999 do
    Sketch.record sk v
  done;
  let out = Array.map (Sketch.quantile sk) [| 0.0; 0.25; 0.5; 0.9; 1.0 |] in
  for i = 1 to Array.length out - 1 do
    check_bool "quantiles ascend" true (out.(i - 1) <= out.(i))
  done;
  check_bool "shape mismatch on merge rejected" true
    (try
       Sketch.merge ~into:(Sketch.create ~sub_bits:4 ()) sk;
       false
     with Invalid_argument _ -> true);
  check_bool "quantile out of range rejected" true
    (try
       ignore (Sketch.quantile sk 1.5);
       false
     with Invalid_argument _ -> true);
  check_int "empty sketch quantile is 0" 0
    (Sketch.quantile (Sketch.create ()) 0.5)

(* ---------- windowed time series ---------- *)

let test_timeseries_windows () =
  let ts = Ts.series ~window:2.0 "test.obs.ts.windows" in
  check_bool "registration is idempotent" true
    (ts == Ts.series "test.obs.ts.windows");
  Alcotest.(check (float 1e-9)) "width from first registration" 2.0 (Ts.width ts);
  Ts.restart ~window:0.5 ts;
  Alcotest.(check (float 1e-9)) "restart re-windows" 0.5 (Ts.width ts);
  check_int "restart clears data" 0 (Array.length (Ts.points ts));
  Ts.add ts ~time:0.2 3;
  Ts.add ts ~time:0.3 1;
  Ts.add ts ~time:1.7 5;
  let pts = Ts.points ts in
  (* Dense layout: windows 0..3 even though window 1 and 2 are empty. *)
  check_int "dense up to the last active window" 4 (Array.length pts);
  check_int "window 0 count" 2 pts.(0).Ts.count;
  check_int "window 0 sum" 4 pts.(0).Ts.sum;
  check_int "empty window count" 0 pts.(1).Ts.count;
  check_int "window 3 sum" 5 pts.(3).Ts.sum;
  Alcotest.(check (float 1e-9)) "window 3 starts at 1.5" 1.5
    pts.(3).Ts.t_start;
  check_bool "plain add carries no sketch" true (pts.(0).Ts.sketch = None);
  let vals = Ts.values ts in
  check_int "values mirror points" 4 (Array.length vals);
  check_bool "values carry sums" true (vals = [| (0.0, 4.0); (0.5, 0.0); (1.0, 0.0); (1.5, 5.0) |]);
  (* observe sketches its samples; fixed-point round-trips. *)
  let lat = Ts.series ~window:1.0 "test.obs.ts.latency" in
  Ts.restart lat;
  Ts.observe lat ~time:0.1 (Ts.to_fp 0.25);
  Ts.observe lat ~time:0.2 (Ts.to_fp 0.5);
  let lp = (Ts.points lat).(0) in
  check_int "observed count" 2 lp.Ts.count;
  (match lp.Ts.sketch with
  | None -> Alcotest.fail "observe must attach a sketch"
  | Some sk ->
      Alcotest.(check (float 1e-3)) "sketched p100 round-trips" 0.5
        (Ts.of_fp (Sketch.quantile sk 1.0)));
  check_bool "negative time rejected" true
    (try
       Ts.add ts ~time:(-1.0) 1;
       false
     with Invalid_argument _ -> true);
  check_bool "non-positive window rejected" true
    (try
       ignore (Ts.series ~window:0.0 "test.obs.ts.bad");
       false
     with Invalid_argument _ -> true);
  check_bool "registry lists by name" true
    (List.exists
       (fun t -> String.equal (Ts.name t) "test.obs.ts.windows")
       (Ts.all ()))

(* Window flushes emit Perfetto counter samples ("C" events) when the
   trace ring is armed. *)
let test_timeseries_trace_counters () =
  with_obs_state @@ fun () ->
  Control.set_enabled true;
  Trace.arm ~capacity:256 ();
  let ts = Ts.series ~window:1.0 "test.obs.ts.counters" in
  Ts.restart ts;
  Ts.add ts ~time:0.5 2;
  Ts.add ts ~time:1.5 3;
  Ts.add ts ~time:2.5 4;
  Ts.flush ts;
  match Broker_report.Report_json.json_of_string (Trace.to_chrome_json ()) with
  | Error msg -> Alcotest.fail ("trace is not valid JSON: " ^ msg)
  | Ok doc -> (
      match field "traceEvents" doc with
      | Some (Broker_report.Report_json.List events) ->
          let c_events =
            List.filter
              (fun ev ->
                match (field "ph" ev, field "name" ev) with
                | ( Some (Broker_report.Report_json.Str "C"),
                    Some (Broker_report.Report_json.Str name) ) ->
                    String.equal name "test.obs.ts.counters"
                | _ -> false)
              events
          in
          check_int "one counter sample per closed window" 3
            (List.length c_events)
      | _ -> Alcotest.fail "no traceEvents array")

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "disabled probes are no-ops" `Quick
          test_disabled_noop;
        Alcotest.test_case "histogram bucket edges" `Quick
          test_histogram_buckets;
        Alcotest.test_case "span nesting & ring wraparound" `Quick
          test_span_ring;
        Alcotest.test_case "Chrome trace JSON" `Quick test_chrome_trace_json;
        Alcotest.test_case "counter determinism" `Quick
          test_counter_determinism;
        Alcotest.test_case "bfs counters count closure runs" `Quick
          test_bfs_counters;
      ] );
    ( "obs.sketch",
      [
        Alcotest.test_case "index edges & histogram parity" `Quick
          test_sketch_index;
        sketch_quantile_vs_oracle;
        sketch_merge_laws;
        Alcotest.test_case "quantile order & validation" `Quick
          test_sketch_validation;
      ] );
    ( "obs.timeseries",
      [
        Alcotest.test_case "window assignment & restart" `Quick
          test_timeseries_windows;
        Alcotest.test_case "Perfetto counter samples" `Quick
          test_timeseries_trace_counters;
      ] );
  ]
