(* Tests for the flow-level simulator (Broker_sim) and the latency model
   (Broker_routing.Latency). *)

open Helpers
module G = Broker_graph.Graph
module Eq = Broker_sim.Event_queue
module Workload = Broker_sim.Workload
module Sim = Broker_sim.Simulator
module Stream = Broker_sim.Topo_stream
module Latency = Broker_routing.Latency

(* ---------- Event_queue ---------- *)

(* The earliest event's time and payload, taken. *)
let take_timed q =
  let t = Eq.min_time q in
  (t, Eq.take q)

let test_eq_time_order () =
  let q = Eq.create () in
  Eq.add q ~time:3.0 "c";
  Eq.add q ~time:1.0 "a";
  Eq.add q ~time:2.0 "b";
  check_int "length" 3 (Eq.length q);
  let order = List.init 3 (fun _ -> Eq.take q) in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] order;
  check_int "drained" 0 (Eq.length q)

let test_eq_stable_ties () =
  let q = Eq.create () in
  for i = 0 to 9 do
    Eq.add q ~time:5.0 i
  done;
  let order = List.init 10 (fun _ -> Eq.take q) in
  Alcotest.(check (list int)) "insertion order on ties" (List.init 10 Fun.id) order

let test_eq_interleaved () =
  let q = Eq.create () in
  Eq.add q ~time:2.0 2;
  check_float "min time" 2.0 (Eq.min_time q);
  Eq.add q ~time:1.0 1;
  check_float "min time updates" 1.0 (Eq.min_time q);
  ignore (Eq.take q);
  Eq.add q ~time:0.5 0;
  check_int "reorder" 0 (Eq.take q)

(* A NaN time would compare false with every other and block the queue
   behind it; an empty queue has no earliest event. *)
let test_eq_refuses () =
  let q = Eq.create () in
  Alcotest.check_raises "NaN time" (Invalid_argument "Event_queue.add: time is NaN")
    (fun () -> Eq.add q ~time:Float.nan 0);
  Alcotest.check_raises "empty min_time" (Invalid_argument "Event_queue.min_time: empty queue")
    (fun () -> ignore (Eq.min_time q));
  Alcotest.check_raises "empty take" (Invalid_argument "Event_queue.take: empty queue")
    (fun () -> ignore (Eq.take q));
  Eq.add q ~time:infinity 1;
  Eq.add q ~time:neg_infinity 2;
  check_int "infinite times order" 2 (Eq.take q);
  check_int "then +inf" 1 (Eq.take q);
  Alcotest.check_raises "drained take" (Invalid_argument "Event_queue.take: empty queue")
    (fun () -> ignore (Eq.take q))

let eq_qcheck_sorted =
  qcheck
    (QCheck.Test.make ~count:200 ~name:"event queue pops sorted"
       QCheck.(small_list (float_range 0.0 1000.0))
       (fun times ->
         let q = Eq.create () in
         List.iteri (fun i t -> Eq.add q ~time:t i) times;
         let popped = List.init (List.length times) (fun _ -> fst (take_timed q)) in
         popped = List.sort compare times))

(* ---------- Workload ---------- *)

let workload_fixture () =
  let masses = Array.make 20 1.0 in
  let model = { Broker_core.Traffic.masses } in
  Workload.generate ~rng:(rng ()) model ~n_sessions:200 Workload.default_params

let test_workload_sorted_and_valid () =
  let sessions = workload_fixture () in
  check_int "count" 200 (Array.length sessions);
  let prev = ref neg_infinity in
  Array.iter
    (fun (s : Workload.session) ->
      check_bool "sorted arrivals" true (s.Workload.arrival >= !prev);
      prev := s.Workload.arrival;
      check_bool "distinct endpoints" true (s.Workload.src <> s.Workload.dst);
      check_bool "positive duration" true (s.Workload.duration > 0.0);
      check_bool "endpoints in range" true
        (s.Workload.src >= 0 && s.Workload.src < 20 && s.Workload.dst >= 0
       && s.Workload.dst < 20))
    sessions

let test_workload_rate () =
  let sessions = workload_fixture () in
  let last = sessions.(199).Workload.arrival in
  (* 200 arrivals at rate 10/unit: expect ~20 time units. *)
  check_bool "arrival clock plausible" true (last > 10.0 && last < 40.0)

let test_workload_invalid () =
  let model = { Broker_core.Traffic.masses = [| 1.0; 1.0 |] } in
  Alcotest.check_raises "negative" (Invalid_argument "Workload.generate: negative count")
    (fun () ->
      ignore (Workload.generate ~rng:(rng ()) model ~n_sessions:(-1) Workload.default_params))

(* ---------- Simulator ---------- *)

(* Star topology fixture wrapped as a Topology.t: center 0 is the broker. *)
let star_topo n =
  let graph = star_graph n in
  {
    Broker_topo.Topology.graph;
    kinds = Array.make n Broker_topo.Node_meta.Transit;
    tiers = Array.make n 2;
    names = Array.init n (fun i -> Printf.sprintf "AS%d" i);
    relations = Broker_topo.Relations.create graph;
  }

let session ~id ~src ~dst ~arrival ~duration =
  { Workload.id; src; dst; arrival; duration; demand = 1.0 }

let test_sim_capacity_blocks () =
  let topo = star_topo 6 in
  (* Two overlapping leaf-to-leaf sessions through the center broker. *)
  let sessions =
    [|
      session ~id:0 ~src:1 ~dst:2 ~arrival:0.0 ~duration:10.0;
      session ~id:1 ~src:3 ~dst:4 ~arrival:1.0 ~duration:10.0;
    |]
  in
  let stats1 =
    Sim.run topo ~brokers:[| 0 |] ~sessions (Sim.uniform_capacity 1.0)
  in
  check_int "one admitted" 1 stats1.Sim.admitted;
  check_int "one blocked on capacity" 1 stats1.Sim.rejected_capacity;
  let stats2 =
    Sim.run topo ~brokers:[| 0 |] ~sessions (Sim.uniform_capacity 2.0)
  in
  check_int "both admitted with capacity 2" 2 stats2.Sim.admitted;
  check_int "peak in flight" 2 stats2.Sim.peak_in_flight

let test_sim_departure_frees_capacity () =
  let topo = star_topo 6 in
  (* Non-overlapping sessions reuse the same capacity unit. *)
  let sessions =
    [|
      session ~id:0 ~src:1 ~dst:2 ~arrival:0.0 ~duration:1.0;
      session ~id:1 ~src:3 ~dst:4 ~arrival:2.0 ~duration:1.0;
    |]
  in
  let stats = Sim.run topo ~brokers:[| 0 |] ~sessions (Sim.uniform_capacity 1.0) in
  check_int "both admitted" 2 stats.Sim.admitted;
  check_int "peak one at a time" 1 stats.Sim.peak_in_flight

let test_sim_no_path () =
  let graph = G.of_edges ~n:4 [| (0, 1); (2, 3) |] in
  let topo = { (star_topo 4) with Broker_topo.Topology.graph } in
  let sessions = [| session ~id:0 ~src:0 ~dst:3 ~arrival:0.0 ~duration:1.0 |] in
  let stats = Sim.run topo ~brokers:[| 0; 2 |] ~sessions (Sim.uniform_capacity 10.0) in
  check_int "no path" 1 stats.Sim.rejected_no_path;
  check_float "admission 0" 0.0 stats.Sim.admission_rate

let test_sim_revenue_and_hops () =
  let topo = star_topo 4 in
  let sessions = [| session ~id:0 ~src:1 ~dst:2 ~arrival:0.0 ~duration:2.0 |] in
  let config = Sim.uniform_capacity 5.0 in
  let stats = Sim.run topo ~brokers:[| 0 |] ~sessions config in
  check_float "two hops via center" 2.0 stats.Sim.mean_hops;
  (* Revenue = 2 * price(1.0) * demand(1) * duration(2) = 4; no employees. *)
  check_float "revenue" 4.0 stats.Sim.revenue;
  check_float "no employee hops" 0.0 stats.Sim.employee_hop_fraction

let test_sim_employee_hops () =
  (* Path 0(broker) - 1 - 2(broker): vertex 1 is hired. *)
  let graph = path_graph 3 in
  let topo = { (star_topo 3) with Broker_topo.Topology.graph } in
  let sessions = [| session ~id:0 ~src:0 ~dst:2 ~arrival:0.0 ~duration:1.0 |] in
  let config = Sim.uniform_capacity 5.0 in
  let stats = Sim.run topo ~brokers:[| 0; 2 |] ~sessions config in
  check_int "admitted" 1 stats.Sim.admitted;
  check_float "employee hops 2 of 2" 1.0 stats.Sim.employee_hop_fraction;
  (* Revenue = 2*1*1*1 - 0.2*2*1*1 = 1.6. *)
  check_float_eps 1e-9 "revenue net of employee" 1.6 stats.Sim.revenue

let test_sim_unsorted_rejected () =
  let topo = star_topo 4 in
  let sessions =
    [|
      session ~id:0 ~src:1 ~dst:2 ~arrival:5.0 ~duration:1.0;
      session ~id:1 ~src:1 ~dst:2 ~arrival:1.0 ~duration:1.0;
    |]
  in
  Alcotest.check_raises "unsorted"
    (Invalid_argument "Simulator.run: sessions not sorted by arrival") (fun () ->
      ignore (Sim.run topo ~brokers:[| 0 |] ~sessions (Sim.uniform_capacity 1.0)))

let test_sim_utilization_bounds () =
  let t = small_internet ~seed:3 ~scale:0.01 () in
  let g = t.Broker_topo.Topology.graph in
  let brokers = Broker_core.Maxsg.run g ~k:15 in
  let model = Broker_core.Traffic.gravity ~rng:(rng ()) g in
  let sessions =
    Workload.generate ~rng:(rng ()) model ~n_sessions:500 Workload.default_params
  in
  let stats = Sim.run t ~brokers ~sessions (Sim.degree_capacity g ~factor:0.2) in
  check_bool "admission in [0,1]" true
    (stats.Sim.admission_rate >= 0.0 && stats.Sim.admission_rate <= 1.0);
  check_bool "utilization in [0,1]" true
    (stats.Sim.mean_broker_utilization >= 0.0
    && stats.Sim.mean_broker_utilization <= 1.0 +. 1e-9);
  check_int "accounting adds up" stats.Sim.offered
    (stats.Sim.admitted + stats.Sim.rejected_no_path + stats.Sim.rejected_capacity)

(* ---------- brokerstat timelines (?stats_window) ---------- *)

module Ts = Broker_obs.Timeseries

let test_sim_stats_window () =
  let t = small_internet ~seed:3 ~scale:0.01 () in
  let g = t.Broker_topo.Topology.graph in
  let brokers = Broker_core.Maxsg.run g ~k:15 in
  let model = Broker_core.Traffic.gravity ~rng:(rng ()) g in
  let sessions =
    Workload.generate ~rng:(rng ()) model ~n_sessions:400 Workload.default_params
  in
  let config = Sim.degree_capacity g ~factor:0.2 in
  Alcotest.check_raises "non-positive window"
    (Invalid_argument "Simulator.run: stats_window must be > 0") (fun () ->
      ignore (Sim.run ~stats_window:0.0 t ~brokers ~sessions config));
  (* Collection is passive: stats are identical with and without it. *)
  let plain = Sim.run t ~brokers ~sessions config in
  let timed = Sim.run ~stats_window:5.0 t ~brokers ~sessions config in
  check_bool "collection never feeds back" true (Sim.stats_equal plain timed);
  List.iter
    (fun name ->
      check_bool (name ^ " registered") true
        (List.exists (fun ts -> String.equal (Ts.name ts) name) (Ts.all ())))
    Sim.timeline_names;
  let find name =
    List.find (fun ts -> String.equal (Ts.name ts) name) (Ts.all ())
  in
  let total name =
    Array.fold_left
      (fun acc (p : Ts.point) -> acc + p.Ts.sum)
      0
      (Ts.points (find name))
  in
  check_int "windowed admissions total the stats" timed.Sim.admitted
    (total "sim.ts.admitted");
  check_int "windowed deliveries total the stats" timed.Sim.admitted
    (total "sim.ts.delivered");
  check_int "windowed rejections total the stats"
    (timed.Sim.rejected_no_path + timed.Sim.rejected_capacity)
    (total "sim.ts.rejected");
  check_int "windowed lookups total the cache stats"
    timed.Sim.cache.Broker_sim.Shard_cache.lookups
    (total "sim.ts.cache.lookups");
  (* Without chaos nobody waits: admission happens at the intended
     arrival instant, so the queue-wait series is all zeros while the
     e2e series carries one sample per delivered session. *)
  let e2e = find "sim.ts.latency.e2e" in
  let samples =
    Array.fold_left (fun acc (p : Ts.point) -> acc + p.Ts.count) 0 (Ts.points e2e)
  in
  check_int "one e2e sample per delivered session" timed.Sim.admitted samples;
  check_int "no queue wait without chaos" 0
    (total "sim.ts.latency.queue_wait")

(* ---------- Event_queue clear & tie-break ---------- *)

let test_eq_clear () =
  let q = Eq.create () in
  for i = 0 to 5 do
    Eq.add q ~time:(float_of_int i) i
  done;
  Eq.clear q;
  check_int "cleared" 0 (Eq.length q);
  (* Still usable after clear; the seq counter restarts so ties follow the
     new insertion order. *)
  Eq.add q ~time:1.0 10;
  Eq.add q ~time:1.0 11;
  check_int "first tie" 10 (Eq.take q);
  check_int "second tie" 11 (Eq.take q)

let test_eq_high_water () =
  let q = Eq.create () in
  check_int "empty high-water" 0 (Eq.max_length q);
  for i = 0 to 4 do
    Eq.add q ~time:(float_of_int i) i
  done;
  check_int "high-water follows growth" 5 (Eq.max_length q);
  ignore (Eq.take q);
  ignore (Eq.take q);
  check_int "length falls" 3 (Eq.length q);
  check_int "high-water never drops" 5 (Eq.max_length q);
  Eq.add q ~time:9.0 9;
  check_int "regrowth below peak keeps peak" 5 (Eq.max_length q);
  for i = 10 to 16 do
    Eq.add q ~time:(float_of_int i) i
  done;
  check_int "new peak raises high-water" 11 (Eq.max_length q);
  Eq.clear q;
  check_int "clear empties" 0 (Eq.length q);
  check_int "clear resets high-water" 0 (Eq.max_length q)

let eq_qcheck_fifo_ties =
  (* Times drawn from a 3-value set so ties are common: the popped sequence
     must equal a stable sort by time (FIFO within equal times). *)
  qcheck
    (QCheck.Test.make ~count:300 ~name:"event queue FIFO on ties"
       QCheck.(small_list (int_bound 2))
       (fun raw ->
         let items = List.mapi (fun i t -> (float_of_int t, i)) raw in
         let q = Eq.create () in
         List.iter (fun (t, i) -> Eq.add q ~time:t i) items;
         let popped = List.init (List.length items) (fun _ -> take_timed q) in
         let expected =
           List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) items
         in
         popped = expected))

(* ---------- Faults ---------- *)

module Faults = Broker_sim.Faults

let xr seed = Broker_util.Xrandom.create seed

let faults_fixture () =
  let t = small_internet ~seed:3 ~scale:0.01 () in
  let brokers = Broker_core.Maxsg.run t.Broker_topo.Topology.graph ~k:10 in
  (t, brokers)

let test_faults_sorted_and_paired () =
  let t, brokers = faults_fixture () in
  let events =
    Faults.generate ~rng:(xr 5) t ~brokers ~horizon:200.0
      (Faults.Independent { mtbf = 50.0; mttr = 10.0 })
  in
  check_bool "nonempty" true (Array.length events > 0);
  let prev = ref neg_infinity in
  Array.iter
    (fun (e : Faults.event) ->
      check_bool "sorted" true (e.Faults.time >= !prev);
      prev := e.Faults.time;
      check_bool "in horizon" true (e.Faults.time >= 0.0 && e.Faults.time <= 200.0))
    events;
  (* Independent scenario: per broker, strict crash/recover alternation. *)
  let state = Hashtbl.create 16 in
  Array.iter
    (fun (e : Faults.event) ->
      let d = Option.value ~default:false (Hashtbl.find_opt state e.Faults.broker) in
      (match e.Faults.kind with
      | Faults.Crash -> check_bool "crash while up" false d
      | Faults.Recover -> check_bool "recover while down" true d);
      Hashtbl.replace state e.Faults.broker (e.Faults.kind = Faults.Crash))
    events;
  Hashtbl.iter (fun _ d -> check_bool "all pairs closed" false d) state

let test_faults_deterministic_and_zero_rate () =
  let t, brokers = faults_fixture () in
  let gen () =
    Faults.generate ~rng:(xr 9) t ~brokers ~horizon:150.0
      (Faults.Degree_targeted { mtbf = 40.0; mttr = 8.0; bias = 1.0 })
  in
  check_bool "same seed, same stream" true (gen () = gen ());
  let empty =
    Faults.generate ~rng:(xr 9) t ~brokers ~horizon:150.0
      (Faults.Independent { mtbf = infinity; mttr = 10.0 })
  in
  check_int "infinite mtbf is the zero-rate process" 0 (Array.length empty)

let test_faults_invalid () =
  let t, brokers = faults_fixture () in
  let expect msg scenario =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        ignore (Faults.generate ~rng:(xr 1) t ~brokers ~horizon:10.0 scenario))
  in
  expect "Faults.generate: mtbf must be positive"
    (Faults.Independent { mtbf = 0.0; mttr = 1.0 });
  expect "Faults.generate: mttr must be positive and finite"
    (Faults.Independent { mtbf = 10.0; mttr = infinity });
  expect "Faults.generate: bias must be >= 0"
    (Faults.Degree_targeted { mtbf = 10.0; mttr = 1.0; bias = -1.0 });
  Alcotest.check_raises "negative horizon"
    (Invalid_argument "Faults.generate: horizon must be >= 0") (fun () ->
      ignore
        (Faults.generate ~rng:(xr 1) t ~brokers ~horizon:(-1.0)
           (Faults.Independent { mtbf = 10.0; mttr = 1.0 })))

let test_faults_ixp_groups () =
  (* Star with an IXP fabric at the center: its broker members fail as a
     unit, simultaneously. *)
  let topo = star_topo 5 in
  topo.Broker_topo.Topology.kinds.(0) <- Broker_topo.Node_meta.Ixp;
  let brokers = [| 1; 2; 3 |] in
  let events =
    Faults.generate ~rng:(xr 21) topo ~brokers ~horizon:500.0
      (Faults.Ixp_outage { mtbf = 40.0; mttr = 10.0 })
  in
  check_bool "some outages" true (Array.length events > 0);
  check_int "whole-group multiples" 0 (Array.length events mod (2 * 3));
  (* Every event time is shared by exactly the 3 member brokers. *)
  let by_time = Hashtbl.create 16 in
  Array.iter
    (fun (e : Faults.event) ->
      check_bool "member only" true (e.Faults.broker >= 1 && e.Faults.broker <= 3);
      let key = (e.Faults.time, e.Faults.kind = Faults.Crash) in
      Hashtbl.replace by_time key
        (1 + Option.value ~default:0 (Hashtbl.find_opt by_time key)))
    events;
  Hashtbl.iter (fun _ c -> check_int "group of members" 3 c) by_time

let test_faults_thin_nested () =
  let t, brokers = faults_fixture () in
  let base =
    Faults.generate ~rng:(xr 5) t ~brokers ~horizon:400.0
      (Faults.Independent { mtbf = 60.0; mttr = 12.0 })
  in
  check_bool "keep=1 is identity" true (Faults.thin ~rng:(xr 2) ~keep:1.0 base = base);
  check_int "keep=0 is empty" 0 (Array.length (Faults.thin ~rng:(xr 2) ~keep:0.0 base));
  (* Identically seeded thinning couples the sweep: lower keep yields a
     subset of the higher keep's events. *)
  let lo = Faults.thin ~rng:(xr 2) ~keep:0.25 base in
  let hi = Faults.thin ~rng:(xr 2) ~keep:0.6 base in
  check_bool "nested" true
    (Array.for_all (fun e -> Array.exists (fun e' -> e' = e) hi) lo)

(* ---------- Simulator chaos layer ---------- *)

let fault ~time ~broker kind = { Faults.time; broker; kind }

let breaker = { Sim.high_water = 0.9; trip_after = 5.0; cooldown = 25.0 }

let zero_chaos =
  {
    Sim.faults = [||];
    failover = true;
    retry = Sim.no_retry;
    breaker = None;
    chaos_seed = 0;
  }

let test_sim_validates_config () =
  let topo = star_topo 4 in
  let sessions = [| session ~id:0 ~src:1 ~dst:2 ~arrival:0.0 ~duration:1.0 |] in
  let base = Sim.uniform_capacity 1.0 in
  Alcotest.check_raises "negative price"
    (Invalid_argument "Simulator.run: price must be >= 0") (fun () ->
      ignore
        (Sim.run topo ~brokers:[| 0 |] ~sessions { base with Sim.price = -1.0 }));
  Alcotest.check_raises "negative employee cost"
    (Invalid_argument "Simulator.run: employee_cost must be >= 0") (fun () ->
      ignore
        (Sim.run topo ~brokers:[| 0 |] ~sessions
           { base with Sim.employee_cost = -0.1 }));
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Simulator.run: capacity_of must be >= 0") (fun () ->
      ignore
        (Sim.run topo ~brokers:[| 0 |] ~sessions
           { base with Sim.capacity_of = (fun _ -> -2.0) }));
  Alcotest.check_raises "broker out of range"
    (Invalid_argument "Simulator.run: broker id out of range") (fun () ->
      ignore (Sim.run topo ~brokers:[| 99 |] ~sessions base));
  (* Malformed chaos input: a negative or NaN delay would schedule a retry
     before the block that caused it. *)
  let expect msg chaos =
    Alcotest.check_raises msg (Invalid_argument ("Simulator.run: " ^ msg))
      (fun () -> ignore (Sim.run ~chaos topo ~brokers:[| 0 |] ~sessions base))
  in
  let retry = Sim.default_retry and bp = breaker in
  expect "retry max_attempts must be >= 0"
    { zero_chaos with Sim.retry = { retry with Sim.max_attempts = -1 } };
  expect "retry base_delay must be >= 0"
    { zero_chaos with Sim.retry = { retry with Sim.base_delay = -1.0 } };
  expect "retry base_delay must be >= 0"
    { zero_chaos with Sim.retry = { retry with Sim.base_delay = Float.nan } };
  expect "retry multiplier must be >= 0"
    { zero_chaos with Sim.retry = { retry with Sim.multiplier = -2.0 } };
  expect "retry jitter must be >= 0"
    { zero_chaos with Sim.retry = { retry with Sim.jitter = Float.nan } };
  (* An infinite delay would admit a retry at t = infinity: the horizon
     goes there and the utilization reads NaN. *)
  expect "retry base_delay must be finite"
    { zero_chaos with Sim.retry = { retry with Sim.base_delay = infinity } };
  expect "retry multiplier must be finite"
    { zero_chaos with Sim.retry = { retry with Sim.multiplier = infinity } };
  expect "retry jitter must be finite"
    { zero_chaos with Sim.retry = { retry with Sim.jitter = infinity } };
  expect "breaker high_water must be >= 0"
    { zero_chaos with Sim.breaker = Some { bp with Sim.high_water = Float.nan } };
  expect "breaker trip_after must be >= 0"
    { zero_chaos with Sim.breaker = Some { bp with Sim.trip_after = -1.0 } };
  expect "breaker cooldown must be >= 0"
    { zero_chaos with Sim.breaker = Some { bp with Sim.cooldown = Float.nan } };
  expect "fault time is NaN"
    { zero_chaos with Sim.faults = [| fault ~time:Float.nan ~broker:0 Faults.Crash |] };
  expect "fault broker id out of range"
    { zero_chaos with Sim.faults = [| fault ~time:1.0 ~broker:4 Faults.Crash |] };
  (* An infinite time stretches the horizon to infinity, where the
     utilization integral reads NaN. *)
  expect "fault time is infinite"
    { zero_chaos with Sim.faults = [| fault ~time:infinity ~broker:0 Faults.Crash |] };
  (* A propagation delay is added to every update's origin time: NaN
     would block the event queue behind the update, infinity would never
     deliver it, and a negative one would deliver it before it happened. *)
  let expect_topo ?(time = 0.0) msg propagation =
    Alcotest.check_raises msg (Invalid_argument ("Simulator.run: " ^ msg)) (fun () ->
        ignore
          (Sim.run
             ~topo:{ Sim.updates = [| { Stream.time; op = Stream.Announce (1, 2) } |]; propagation }
             topo ~brokers:[| 0 |] ~sessions base))
  in
  List.iter
    (fun d ->
      expect_topo "Centralized delay must be finite and >= 0" (Stream.Centralized { delay = d });
      expect_topo "Bgp_like base must be finite and >= 0" (Stream.Bgp_like { base = d; per_hop = 1.0 });
      expect_topo "Bgp_like per_hop must be finite and >= 0"
        (Stream.Bgp_like { base = 1.0; per_hop = d }))
    [ Float.nan; -1.0; infinity ];
  let expect_sessions msg sessions =
    Alcotest.check_raises msg (Invalid_argument ("Simulator.run: " ^ msg)) (fun () ->
        ignore (Sim.run topo ~brokers:[| 0 |] ~sessions base))
  in
  expect_topo ~time:infinity "topo update time is infinite" (Stream.Centralized { delay = 0.0 });
  expect_sessions "session arrival is NaN"
    [| session ~id:0 ~src:1 ~dst:2 ~arrival:Float.nan ~duration:1.0 |];
  expect_sessions "session arrival is infinite"
    [| session ~id:0 ~src:1 ~dst:2 ~arrival:infinity ~duration:1.0 |];
  expect_sessions "session duration is NaN"
    [| session ~id:0 ~src:1 ~dst:2 ~arrival:0.0 ~duration:Float.nan |];
  expect_sessions "session duration is infinite"
    [| session ~id:0 ~src:1 ~dst:2 ~arrival:0.0 ~duration:infinity |]

(* A session of duration -5 departed before it arrived and ran the run's
   utilization to -1 and its revenue to -6 with no error: 6-vertex star,
   broker 0 at capacity 1, sessions (0, 1 -> 2, d) and (1, 1 -> 2, 2).
   A zero duration stays legal. *)
let test_sim_refuses_negative_duration () =
  let topo = star_topo 6 in
  let sessions d =
    [|
      session ~id:0 ~src:1 ~dst:2 ~arrival:0.0 ~duration:d;
      session ~id:1 ~src:1 ~dst:2 ~arrival:1.0 ~duration:2.0;
    |]
  in
  let run d = Sim.run topo ~brokers:[| 0 |] ~sessions:(sessions d) (Sim.uniform_capacity 1.0) in
  Alcotest.check_raises "duration -5"
    (Invalid_argument "Simulator.run: session duration must be finite and >= 0") (fun () ->
      ignore (run (-5.0)));
  let s = run 0.0 in
  check_int "zero duration: both admitted" 2 s.Sim.admitted;
  check_bool "utilization >= 0" true (s.Sim.mean_broker_utilization >= 0.0);
  check_bool "revenue >= 0" true (s.Sim.revenue >= 0.0)

(* 4-cycle 0-1-2-3-0 with brokers 1 and 3: both leaf pairs are bridged by
   either broker, so a session 0->2 can fail over from one to the other.
   The path picked at admission is an implementation detail, so crash each
   broker in turn: exactly one of the two runs must reroute. *)
let cycle_fixture () =
  let graph = G.of_edges ~n:4 [| (0, 1); (1, 2); (2, 3); (3, 0) |] in
  let topo = { (star_topo 4) with Broker_topo.Topology.graph } in
  let sessions = [| session ~id:0 ~src:0 ~dst:2 ~arrival:0.0 ~duration:10.0 |] in
  (topo, sessions)

let cycle_run ~failover ~crash =
  let topo, sessions = cycle_fixture () in
  let faults =
    [|
      fault ~time:2.0 ~broker:crash Faults.Crash;
      fault ~time:50.0 ~broker:crash Faults.Recover;
    |]
  in
  Sim.run
    ~chaos:{ zero_chaos with Sim.faults; failover }
    topo ~brokers:[| 1; 3 |] ~sessions (Sim.uniform_capacity 5.0)

let test_sim_failover_reroutes () =
  let a = cycle_run ~failover:true ~crash:1 in
  let b = cycle_run ~failover:true ~crash:3 in
  check_int "exactly one run rerouted" 1 (a.Sim.failed_over + b.Sim.failed_over);
  check_int "no drops with an alternate path" 0
    (a.Sim.dropped_midflight + b.Sim.dropped_midflight);
  check_float "no revenue lost" 0.0 (a.Sim.revenue_lost +. b.Sim.revenue_lost);
  let a' = cycle_run ~failover:false ~crash:1 in
  let b' = cycle_run ~failover:false ~crash:3 in
  check_int "without failover the same crash drops it" 1
    (a'.Sim.dropped_midflight + b'.Sim.dropped_midflight);
  check_int "never rerouted when disabled" 0
    (a'.Sim.failed_over + b'.Sim.failed_over)

let test_sim_drop_without_alternate () =
  (* Star: the only broker is the center; its crash kills the session 80%
     through its revenue. *)
  let topo = star_topo 4 in
  let sessions = [| session ~id:0 ~src:1 ~dst:2 ~arrival:0.0 ~duration:10.0 |] in
  let faults =
    [|
      fault ~time:2.0 ~broker:0 Faults.Crash;
      fault ~time:50.0 ~broker:0 Faults.Recover;
    |]
  in
  let s =
    Sim.run
      ~chaos:{ zero_chaos with Sim.faults }
      topo ~brokers:[| 0 |] ~sessions (Sim.uniform_capacity 5.0)
  in
  check_int "dropped" 1 s.Sim.dropped_midflight;
  check_int "not rerouted" 0 s.Sim.failed_over;
  (* Admission booked 2*1*1*10 = 20; 8 of 10 units refunded. *)
  check_float_eps 1e-9 "revenue lost" 16.0 s.Sim.revenue_lost;
  check_float_eps 1e-9 "net revenue" 4.0 s.Sim.revenue;
  (* Downtime 2..50 over a horizon ending at the recover event. *)
  check_float_eps 1e-9 "downtime" 48.0 s.Sim.broker_downtime;
  check_float_eps 1e-9 "availability" (1.0 -. (48.0 /. 50.0)) s.Sim.availability

(* Outages still open at the horizon close in [brokers] order, not in
   vertex order: brokers 5, 3 and 1, down since 2.2, 4.2 and 0.3 until
   the horizon at 10, add up to 23.299999999999997 that way and to 23.3
   the other. *)
let test_sim_downtime_order () =
  let topo = star_topo 6 in
  let sessions = [| session ~id:0 ~src:2 ~dst:4 ~arrival:10.0 ~duration:0.0 |] in
  let faults =
    [|
      fault ~time:0.3 ~broker:1 Faults.Crash;
      fault ~time:2.2 ~broker:5 Faults.Crash;
      fault ~time:4.2 ~broker:3 Faults.Crash;
    |]
  in
  let s =
    Sim.run
      ~chaos:{ zero_chaos with Sim.faults }
      topo ~brokers:[| 5; 3; 1 |] ~sessions (Sim.uniform_capacity 1.0)
  in
  let open_outage since = 10.0 -. since in
  let in_brokers_order = open_outage 2.2 +. open_outage 4.2 +. open_outage 0.3 in
  let in_vertex_order = open_outage 0.3 +. open_outage 4.2 +. open_outage 2.2 in
  check_bool "the two orders differ" false (Float.equal in_brokers_order in_vertex_order);
  check_bool "downtime in brokers order" true (Float.equal in_brokers_order s.Sim.broker_downtime)

let test_sim_retry_admits_after_backoff () =
  (* Capacity 1: the second session is blocked at t=1, retries at t=5
     (still blocked) and t=13 (admitted, the first left at t=10). *)
  let topo = star_topo 6 in
  let sessions =
    [|
      session ~id:0 ~src:1 ~dst:2 ~arrival:0.0 ~duration:10.0;
      session ~id:1 ~src:3 ~dst:4 ~arrival:1.0 ~duration:2.0;
    |]
  in
  let retry =
    { Sim.max_attempts = 2; base_delay = 4.0; multiplier = 2.0; jitter = 0.0 }
  in
  let s =
    Sim.run
      ~chaos:{ zero_chaos with Sim.retry }
      topo ~brokers:[| 0 |] ~sessions (Sim.uniform_capacity 1.0)
  in
  check_int "both admitted eventually" 2 s.Sim.admitted;
  check_int "one via retry" 1 s.Sim.retried_admitted;
  check_int "offered counts arrivals once" 2 s.Sim.offered;
  check_int "no capacity rejection" 0 s.Sim.rejected_capacity;
  (* Exhausting the budget still rejects: one attempt retries at t=5 only. *)
  let s' =
    Sim.run
      ~chaos:
        { zero_chaos with Sim.retry = { retry with Sim.max_attempts = 1 } }
      topo ~brokers:[| 0 |] ~sessions (Sim.uniform_capacity 1.0)
  in
  check_int "budget exhausted" 1 s'.Sim.rejected_capacity;
  check_int "only the first admitted" 1 s'.Sim.admitted

let test_sim_breaker_sheds () =
  (* high_water 0.5 with capacity 1: the first admission saturates the
     center broker at t=0; by t=2 the excursion exceeds trip_after=1, so
     the second arrival is shed (not a capacity rejection). *)
  let topo = star_topo 6 in
  let sessions =
    [|
      session ~id:0 ~src:1 ~dst:2 ~arrival:0.0 ~duration:10.0;
      session ~id:1 ~src:3 ~dst:4 ~arrival:2.0 ~duration:1.0;
    |]
  in
  let breaker = Some { Sim.high_water = 0.5; trip_after = 1.0; cooldown = 100.0 } in
  let s =
    Sim.run
      ~chaos:{ zero_chaos with Sim.breaker }
      topo ~brokers:[| 0 |] ~sessions (Sim.uniform_capacity 1.0)
  in
  check_int "shed" 1 s.Sim.rejected_shed;
  check_int "not a capacity rejection" 0 s.Sim.rejected_capacity;
  check_int "one admitted" 1 s.Sim.admitted;
  check_int "accounting adds up" s.Sim.offered
    (s.Sim.admitted + s.Sim.rejected_no_path + s.Sim.rejected_capacity
   + s.Sim.rejected_shed)

let test_sim_chaos_deterministic () =
  let t = small_internet ~seed:3 ~scale:0.01 () in
  let g = t.Broker_topo.Topology.graph in
  let brokers = Broker_core.Maxsg.run g ~k:12 in
  let model = Broker_core.Traffic.gravity ~rng:(xr 41) g in
  let sessions =
    Workload.generate ~rng:(xr 42) model ~n_sessions:800 Workload.default_params
  in
  let horizon = sessions.(799).Workload.arrival +. 20.0 in
  let faults =
    Faults.generate ~rng:(xr 43) t ~brokers ~horizon
      (Faults.Independent { mtbf = horizon /. 6.0; mttr = 15.0 })
  in
  let chaos = { (Sim.default_chaos faults) with Sim.breaker = Some breaker } in
  let config = Sim.degree_capacity g ~factor:0.2 in
  let run () = Sim.run ~chaos t ~brokers ~sessions config in
  let a = run () and b = run () in
  check_bool "same inputs, same stats" true (Sim.stats_equal a b);
  check_bool "something failed over" true (a.Sim.failed_over > 0);
  check_bool "accounting adds up under chaos" true
    (a.Sim.offered
    = a.Sim.admitted + a.Sim.rejected_no_path + a.Sim.rejected_capacity
      + a.Sim.rejected_shed);
  check_bool "availability in [0,1]" true
    (a.Sim.availability >= 0.0 && a.Sim.availability <= 1.0)

(* ---------- Shard cache ---------- *)

module Cache = Broker_sim.Shard_cache

let test_cache_validation () =
  Alcotest.check_raises "ring vnodes < 1"
    (Invalid_argument "Shard_cache.create: vnodes must be >= 1") (fun () ->
      ignore
        (Cache.create ~strategy:(Cache.Ring { vnodes = 0 }) ~n:4 ~shards:[| 0 |] ()));
  Alcotest.check_raises "shard out of range"
    (Invalid_argument "Shard_cache.create: shard id out of range") (fun () ->
      ignore (Cache.create ~n:4 ~shards:[| 4 |] ()));
  Alcotest.check_raises "phase duration zero"
    (Invalid_argument "Faults.phased: phase duration must be positive") (fun () ->
      ignore (Faults.phased [ (0.0, [||]) ]));
  Alcotest.check_raises "phase duration nan"
    (Invalid_argument "Faults.phased: phase duration must be positive") (fun () ->
      ignore (Faults.phased [ (Float.nan, [| 1 |]) ]));
  Alcotest.check_raises "phase broker negative"
    (Invalid_argument "Faults.phased: broker id must be >= 0") (fun () ->
      ignore (Faults.phased [ (1.0, [| -1 |]) ]));
  Alcotest.check_raises "zipf too small"
    (Invalid_argument "Workload.zipf: need at least 2 vertices") (fun () ->
      ignore (Workload.zipf ~n:1 ()));
  Alcotest.check_raises "zipf bad alpha"
    (Invalid_argument "Workload.zipf: alpha must be positive and finite")
    (fun () -> ignore (Workload.zipf ~alpha:0.0 ~n:8 ()))

let test_faults_phased () =
  let ev = Faults.phased [ (10.0, [||]); (5.0, [| 2; 1 |]); (5.0, [||]) ] in
  let expect =
    [|
      fault ~time:10.0 ~broker:1 Faults.Crash;
      fault ~time:10.0 ~broker:2 Faults.Crash;
      fault ~time:15.0 ~broker:1 Faults.Recover;
      fault ~time:15.0 ~broker:2 Faults.Recover;
    |]
  in
  check_bool "churn window diffs the down-sets" true (ev = expect);
  (* A broker down across consecutive phases emits nothing at the seam,
     and the trailing boundary always recovers it. *)
  let ev2 = Faults.phased [ (4.0, [| 7 |]); (4.0, [| 7; 7 |]) ] in
  let expect2 =
    [|
      fault ~time:0.0 ~broker:7 Faults.Crash;
      fault ~time:8.0 ~broker:7 Faults.Recover;
    |]
  in
  check_bool "stay-down spans phases" true (ev2 = expect2)

(* Flush eviction is exact: a crash drops precisely the entries whose
   current path rides the broker, and a recovery drops what was computed
   under an outage. Synthetic compute closures stand in for the path
   solver so each cached path is chosen exactly. *)
let test_cache_flush_invariant () =
  let c = Cache.create ~n:6 ~shards:[| 1; 3; 5 |] () in
  let find path src dst = Cache.find c ~compute:(fun () -> path) src dst in
  ignore (find (Some [| 0; 1; 2 |]) 0 2);
  ignore (find (Some [| 0; 1; 3; 4 |]) 0 4);
  check_int "two entries" 2 (Cache.size c);
  check_bool "invariant warm" true (Cache.invariant_ok c);
  Cache.crash c 1;
  (* Both paths rode broker 1, so both go, (0,4) although it also rides
     broker 3. *)
  check_int "all riders evicted" 0 (Cache.size c);
  check_int "evicted tally" 2 (Cache.stats c).Cache.evicted;
  check_bool "invariant after crash" true (Cache.invariant_ok c);
  (* Re-cache (0,4) along the surviving broker, then crash 3: exactly the
     one current rider goes; the path evicted earlier is not counted twice. *)
  ignore (find (Some [| 0; 3; 4 |]) 0 4);
  Cache.crash c 3;
  check_int "only the live rider evicted" 3 (Cache.stats c).Cache.evicted;
  check_bool "invariant after second crash" true (Cache.invariant_ok c);
  (* A key computed under the outage is flushed once brokers recover. *)
  ignore (find (Some [| 2; 5; 4 |]) 2 4);
  check_int "degraded entry cached" 1 (Cache.size c);
  Cache.recover c 1;
  Cache.recover c 3;
  check_int "recovery flushes the degraded key" 1 (Cache.stats c).Cache.flushed;
  check_int "store empty after flush" 0 (Cache.size c);
  check_bool "invariant after recovery" true (Cache.invariant_ok c)

(* The entry tables at a size that makes them grow, wrap their probe
   runs and shift entries back over many deletions: 299 keys under
   Modulo over three shards (each table starts at 64 slots), a crash and
   a recovery that both remap most of them, then Flush with exact rider
   eviction. Every kept key must still hit with its own path. *)
let test_cache_tables () =
  let n = 300 in
  let keys = List.init (n - 1) (fun k -> (k + 1, (k * 7) mod n)) in
  let path (src, dst) via = Some [| src; via; dst |] in
  let fill c via =
    List.iter (fun (src, dst) -> ignore (Cache.find c ~compute:(fun () -> path (src, dst) via) src dst)) keys
  in
  let served_own c via =
    List.for_all
      (fun (src, dst) ->
        Cache.find c ~compute:(fun () -> path (src, dst) via) src dst = path (src, dst) via)
      keys
  in
  let c = Cache.create ~strategy:Cache.Modulo ~seed:3 ~n ~shards:[| 0; 1; 2 |] () in
  fill c 0;
  check_int "all keys cached" (List.length keys) (Cache.size c);
  check_bool "invariant after growth" true (Cache.invariant_ok c);
  Cache.crash c 2;
  let kept = Cache.size c in
  check_bool "invariant after compaction" true (Cache.invariant_ok c);
  check_int "kept + evicted = keys" (List.length keys) (kept + (Cache.stats c).Cache.evicted);
  let hits = (Cache.stats c).Cache.hits in
  check_bool "every key served its path" true (served_own c 0);
  check_int "every kept key hits" kept ((Cache.stats c).Cache.hits - hits);
  Cache.recover c 2;
  check_bool "invariant after handback" true (Cache.invariant_ok c);
  check_bool "every key served its path after recovery" true (served_own c 0);
  Cache.invalidate_all c;
  check_int "invalidated in place" 0 (Cache.size c);
  check_bool "invariant after invalidation" true (Cache.invariant_ok c);
  let f = Cache.create ~n ~shards:[| 0; 1; 2 |] () in
  let paths = List.mapi (fun i key -> path key (if i mod 3 = 0 then 1 else 0)) keys in
  List.iter2
    (fun (src, dst) p -> ignore (Cache.find f ~compute:(fun () -> p) src dst))
    keys paths;
  Cache.crash f 1;
  let riders = List.filter (fun p -> Array.mem 1 (Option.get p)) paths in
  check_int "exactly the riders evicted" (List.length riders) (Cache.stats f).Cache.evicted;
  check_bool "flush invariant after eviction" true (Cache.invariant_ok f);
  check_int "survivors kept" (List.length keys - (Cache.stats f).Cache.evicted) (Cache.size f)

(* Satellite: crashing one of n shards remaps a bounded fraction of keys
   under Ring and nearly everything under Modulo. Owners are hash-derived
   and deterministic, so the property is exact per (nshards, seed). *)
let cache_qcheck_remap =
  qcheck
    (QCheck.Test.make ~count:60 ~name:"ring remap bounded, modulo near-total"
       QCheck.(pair (int_range 4 12) (int_bound 1000))
       (fun (nshards, seed) ->
         let n = 64 in
         let shards = Array.init nshards Fun.id in
         let keys =
           List.concat_map
             (fun a -> List.init 16 (fun b -> (a, b + 16)))
             (List.init 16 Fun.id)
         in
         let frac strategy =
           let c = Cache.create ~strategy ~seed ~n ~shards () in
           let before = List.map (fun (a, b) -> Cache.owner c a b) keys in
           Cache.crash c (nshards - 1);
           let after = List.map (fun (a, b) -> Cache.owner c a b) keys in
           let covered =
             List.for_all Option.is_some before && List.for_all Option.is_some after
           in
           let moved =
             List.fold_left2
               (fun acc o o' -> if o <> o' then acc + 1 else acc)
               0 before after
           in
           (covered, float_of_int moved /. float_of_int (List.length keys))
         in
         let ring_ok, ring = frac (Cache.Ring { vnodes = 64 }) in
         let md_ok, md = frac Cache.Modulo in
         ring_ok && md_ok
         && ring <= 3.5 /. float_of_int nshards
         && md >= 0.5))

(* ---------- The whole option matrix ---------- *)

(* One fixed-seed property over every combination of the optional
   inputs: chaos {absent, zero-rate, Independent faults} × topo {absent,
   empty stream, Bgp_like burst} × cache {Flush, Modulo, Ring} ×
   stats_window {off, on}. Absent chaos and absent topo are, by
   construction, the zero-rate and empty-stream values, so those pairs
   must agree field for field. *)
let sim_qcheck_option_matrix =
  let t = small_internet ~seed:7 ~scale:0.008 () in
  let g = t.Broker_topo.Topology.graph in
  let brokers = Broker_core.Maxsg.run g ~k:12 in
  let model = Broker_core.Traffic.gravity ~rng:(xr 31) g in
  qcheck ~seed:12
    (QCheck.Test.make ~count:20 ~name:"option matrix invariants"
       QCheck.(pair (int_bound 120) (int_bound 3))
       (fun (n_sessions, fi) ->
         let factor = [| 0.05; 0.1; 0.3; 1.0 |].(fi) in
         let sessions =
           Workload.generate
             ~rng:(xr ((13 * n_sessions) + fi))
             model ~n_sessions Workload.default_params
         in
         let config = Sim.degree_capacity g ~factor in
         let horizon =
           (if n_sessions = 0 then 0.0
            else sessions.(n_sessions - 1).Workload.arrival)
           +. 10.0
         in
         let faults =
           Faults.generate ~rng:(xr (n_sessions + 5)) t ~brokers ~horizon
             (Faults.Independent { mtbf = horizon /. 3.0; mttr = 4.0 })
         in
         let updates =
           Array.map
             (fun op -> { Stream.time = 0.5 *. horizon; op })
             (Stream.burst ~rng:(xr (fi + 11)) g ~size:6)
         in
         let empty =
           { Sim.updates = [||]; propagation = Stream.Centralized { delay = 1.0 } }
         in
         let burst =
           { Sim.updates; propagation = Stream.Bgp_like { base = 0.5; per_hop = 1.0 } }
         in
         let caches = [ Cache.Flush; Cache.Modulo; Cache.Ring { vnodes = 16 } ] in
         let run ?chaos ?topo ?stats_window cache =
           Sim.run ?chaos ?topo ~cache ?stats_window t ~brokers ~sessions config
         in
         let sound (s : Sim.stats) =
           s.Sim.offered
           = s.Sim.admitted + s.Sim.rejected_no_path + s.Sim.rejected_capacity
             + s.Sim.rejected_shed
           && s.Sim.dropped_midflight <= s.Sim.admitted
           && s.Sim.availability >= 0.0 && s.Sim.availability <= 1.0
         in
         (* Same admissions: everything but the cache outcome tallies. *)
         let same_admissions (a : Sim.stats) (b : Sim.stats) =
           Sim.stats_equal a { b with Sim.cache = a.Sim.cache }
         in
         let no_updates (s : Sim.stats) = s.Sim.topo_applied + s.Sim.topo_ignored = 0 in
         let chaos_opts =
           [ (None, false); (Some zero_chaos, false); (Some (Sim.default_chaos faults), true) ]
         in
         let topo_opts = [ (None, false); (Some empty, false); (Some burst, true) ] in
         List.for_all
           (fun cache ->
             List.for_all
               (fun (chaos, faulty) ->
                 List.for_all
                   (fun (topo, churned) ->
                     let s = run ?chaos ?topo cache in
                     sound s
                     (* stats_window is passive *)
                     && Sim.stats_equal s (run ?chaos ?topo ~stats_window:5.0 cache)
                     (* absent = empty: zero-rate chaos and an empty stream
                        change nothing, whatever the other options *)
                     && (faulty || Sim.stats_equal s (run ?topo cache))
                     && (churned || (no_updates s && Sim.stats_equal s (run ?chaos cache)))
                     (* without faults the strategy never changes admissions,
                        and without churn not even the cache tallies *)
                     && (faulty
                        ||
                        let flush = run ?chaos ?topo Cache.Flush in
                        same_admissions flush s
                        && (churned || Sim.stats_equal flush s)))
                   topo_opts)
               chaos_opts)
           caches))

(* Every [stats] field of one run on one line: ints in decimal, floats
   in hex ([%h]) so the digest sees every bit, the cache tallies last. *)
let stats_line (s : Sim.stats) =
  let c = s.Sim.cache in
  Printf.sprintf "%d %d %d %d %d %h %h %h %d %h %h %d %d %d %h %h %h %d %d | %d %d %d %d %d %d %d"
    s.Sim.offered s.Sim.admitted s.Sim.rejected_no_path s.Sim.rejected_capacity
    s.Sim.rejected_shed s.Sim.admission_rate s.Sim.mean_hops s.Sim.employee_hop_fraction
    s.Sim.peak_in_flight s.Sim.mean_broker_utilization s.Sim.revenue s.Sim.failed_over
    s.Sim.dropped_midflight s.Sim.retried_admitted s.Sim.broker_downtime
    s.Sim.revenue_lost s.Sim.availability s.Sim.topo_applied s.Sim.topo_ignored
    c.Cache.lookups c.Cache.hits c.Cache.served_degraded c.Cache.repaired_lazily
    c.Cache.recomputed c.Cache.evicted c.Cache.flushed

(* Two routes from 0 to 2, through broker 1 or broker 3, and a spur 4-3-5
   that only broker 3 dominates. Session 2 is blocked at t=1 and admitted
   on a retry at about t=5, after session 3 was admitted at t=3, so the
   crash at t=10 finds its riders in admission order 3, 2 and must fail
   them over in id order 2, 3: the failover broker has room for one. Each
   of the two brokers is crashed in its own run, so whichever route the
   search picks, one run exercises the order. *)
let out_of_order_runs () =
  let graph = G.of_edges ~n:6 [| (0, 1); (1, 2); (2, 3); (3, 0); (4, 3); (3, 5) |] in
  let topo = { (star_topo 6) with Broker_topo.Topology.graph } in
  let s ~id ~src ~dst ~arrival ~duration = session ~id ~src ~dst ~arrival ~duration in
  let sessions =
    [|
      s ~id:0 ~src:0 ~dst:2 ~arrival:0.0 ~duration:2.0;
      s ~id:1 ~src:0 ~dst:2 ~arrival:0.5 ~duration:4.0;
      s ~id:4 ~src:4 ~dst:5 ~arrival:0.7 ~duration:60.0;
      s ~id:2 ~src:0 ~dst:2 ~arrival:1.0 ~duration:30.0;
      s ~id:3 ~src:0 ~dst:2 ~arrival:3.0 ~duration:45.0;
    |]
  in
  let config = { (Sim.uniform_capacity 2.0) with Sim.price = 1.5 } in
  let retry = { Sim.max_attempts = 3; base_delay = 4.0; multiplier = 1.0; jitter = 0.25 } in
  List.map
    (fun crash ->
      let faults =
        [| fault ~time:10.0 ~broker:crash Faults.Crash; fault ~time:70.0 ~broker:crash Faults.Recover |]
      in
      Sim.run
        ~chaos:{ zero_chaos with Sim.faults; retry; chaos_seed = 3 }
        topo ~brokers:[| 1; 3 |] ~sessions config)
    [ 1; 3 ]

(* A digest of every [stats] field over fixed seeds, pinned: the option
   matrix (chaos absent, zero-rate and Independent × updates absent,
   empty and a Bgp_like burst × Flush, Modulo and Ring), then retries
   with jitter, a breaker, failover off, Degree_targeted and Ixp_outage
   faults, a centralized feed, a broker listed twice with overlapping
   outages and a fault on a non-broker, brokers whose paths hire
   employees, and {!out_of_order_runs}. Any
   change to the event order, a cache outcome, a counter or a float
   summation order moves it. *)
let test_sim_stats_digest () =
  let t = small_internet ~seed:7 ~scale:0.008 () in
  let g = t.Broker_topo.Topology.graph in
  let brokers = Broker_core.Maxsg.run g ~k:12 in
  let model = Broker_core.Traffic.gravity ~rng:(xr 31) g in
  let sessions = Workload.generate ~rng:(xr 57) model ~n_sessions:400 Workload.default_params in
  let config = Sim.degree_capacity g ~factor:0.1 in
  let horizon = Workload.last_arrival sessions +. 10.0 in
  let faults scenario = Faults.generate ~rng:(xr 61) t ~brokers ~horizon scenario in
  let independent = faults (Faults.Independent { mtbf = horizon /. 3.0; mttr = 4.0 }) in
  let burst =
    Array.map (fun op -> { Stream.time = 0.5 *. horizon; op }) (Stream.burst ~rng:(xr 67) g ~size:6)
  in
  let empty = { Sim.updates = [||]; propagation = Stream.Centralized { delay = 1.0 } } in
  let bgp = { Sim.updates = burst; propagation = Stream.Bgp_like { base = 0.5; per_hop = 1.0 } } in
  let central = { Sim.updates = burst; propagation = Stream.Centralized { delay = 2.0 } } in
  let ring = Cache.Ring { vnodes = 16 } in
  let run ?chaos ?topo ?(brokers = brokers) ?(config = config) cache =
    Sim.run ?chaos ?topo ~cache t ~brokers ~sessions config
  in
  let chaos = Sim.default_chaos independent in
  let matrix =
    List.concat_map
      (fun cache ->
        List.concat_map
          (fun chaos ->
            List.map (fun topo -> run ?chaos ?topo cache) [ None; Some empty; Some bgp ])
          [ None; Some zero_chaos; Some chaos ])
      [ Cache.Flush; Cache.Modulo; ring ]
  in
  let jitter =
    { chaos with
      Sim.retry = { Sim.max_attempts = 4; base_delay = 0.5; multiplier = 1.5; jitter = 1.0 };
      chaos_seed = 5 }
  in
  let b0 = brokers.(0) and b1 = brokers.(1) in
  let twice = Array.append brokers [| b1 |] in
  (* Brokers spread by id, not chosen for coverage: paths hire employees. *)
  let spread = Array.init 40 (fun i -> (i * 37) mod G.n g) in
  let non_broker =
    let rec go v = if Array.mem v brokers then go (v + 1) else v in
    go 0
  in
  let overlapping =
    [|
      fault ~time:5.0 ~broker:b1 Faults.Crash;
      fault ~time:6.0 ~broker:non_broker Faults.Crash;
      fault ~time:7.0 ~broker:b1 Faults.Crash;
      fault ~time:9.0 ~broker:b0 Faults.Crash;
      fault ~time:12.0 ~broker:b1 Faults.Recover;
      fault ~time:15.0 ~broker:b0 Faults.Recover;
      fault ~time:20.0 ~broker:b1 Faults.Recover;
    |]
  in
  let extras =
    [
      run ~chaos:jitter ring;
      run ~chaos:jitter ~config:(Sim.degree_capacity g ~factor:0.03) Cache.Flush;
      run ~chaos:{ chaos with Sim.breaker = Some breaker } Cache.Flush;
      run ~chaos:{ chaos with Sim.breaker = Some breaker } ~topo:bgp Cache.Modulo;
      run ~chaos:{ chaos with Sim.failover = false } ring;
      run ~chaos:{ chaos with Sim.failover = false } Cache.Flush;
      run
        ~chaos:(Sim.default_chaos (faults (Faults.Degree_targeted { mtbf = horizon /. 3.0; mttr = 4.0; bias = 1.0 })))
        Cache.Flush;
      run ~chaos:(Sim.default_chaos (faults (Faults.Ixp_outage { mtbf = horizon /. 3.0; mttr = 4.0 }))) ring;
      run ~chaos ~topo:central Cache.Flush;
      run ~chaos:{ chaos with Sim.faults = overlapping } ~brokers:twice Cache.Flush;
      run ~chaos:{ chaos with Sim.faults = overlapping } ~brokers:twice ring;
      run ~chaos:(Sim.default_chaos (faults (Faults.Independent { mtbf = horizon /. 3.0; mttr = 4.0 })))
        ~brokers:spread Cache.Flush;
    ]
  in
  let lines = List.map stats_line (matrix @ extras @ out_of_order_runs ()) in
  let digest = Digest.to_hex (Digest.string (String.concat "\n" lines)) in
  Printf.printf "%d runs, stats digest %s\n" (List.length lines) digest;
  Alcotest.(check string) "stats digest" "fa96f7412c1d0e2499a9276793d21de5" digest

(* Allocation gate: one run shaped like e2ebench sim-churn without its
   topology updates (scale 0.02, 20 MaxSG brokers, 100k Zipf sessions,
   Independent faults, the Ring cache) stays under stated bounds of
   minor and major words per session. What a session must allocate is
   its reservation record, its departure event, its rider-list cells and,
   on a miss, a path. It reads 47.2 minor and 6.11 major words per
   session; the boxed queue pops, tuple-keyed tables, per-lookup
   closures and per-vertex float arrays these bounds replaced read 194.9
   and 6.82. *)
let test_sim_alloc_per_session () =
  let t = small_internet ~seed:42 ~scale:0.02 () in
  let g = t.Broker_topo.Topology.graph in
  let brokers = Broker_core.Maxsg.run g ~k:20 in
  let n_sessions = 100_000 in
  let sessions =
    Workload.generate ~rng:(xr 6)
      (Workload.zipf ~alpha:1.2 ~n:(G.n g) ())
      ~n_sessions Workload.default_params
  in
  let horizon = Workload.last_arrival sessions in
  let faults =
    Faults.generate ~rng:(xr 7) t ~brokers ~horizon
      (Faults.Independent { mtbf = horizon /. 4.0; mttr = 20.0 })
  in
  let chaos = Sim.default_chaos faults in
  let cache = Cache.Ring { vnodes = Cache.default_vnodes } in
  let config = Sim.degree_capacity g ~factor:0.25 in
  let minor0 = Gc.minor_words () and major0 = (Gc.quick_stat ()).Gc.major_words in
  let stats = Sim.run ~chaos ~cache t ~brokers ~sessions config in
  let minor = (Gc.minor_words () -. minor0) /. float_of_int n_sessions in
  let major = ((Gc.quick_stat ()).Gc.major_words -. major0) /. float_of_int n_sessions in
  Printf.printf "sim-churn shape, no updates: %.1f minor, %.2f major words per session\n"
    minor major;
  check_int "every session offered" n_sessions stats.Sim.offered;
  check_bool "under 70 minor words per session" true (minor < 70.0);
  check_bool "under 9 major words per session" true (major < 9.0)

(* Graceful-degradation outcomes of a sharded lookup, one by one. Owners
   are hash-placed, so riders and key choices adapt to [owner] instead of
   hard-coding shard ids. *)
let test_cache_degraded_outcomes () =
  let c =
    Cache.create ~strategy:(Cache.Ring { vnodes = 32 }) ~seed:5 ~n:10
      ~shards:[| 0; 1; 2; 3 |] ()
  in
  let find path src dst = Cache.find c ~compute:(fun () -> path) src dst in
  let stat () = Cache.stats c in
  (* A rider broker that does not own (6,7): crashing it invalidates the
     cached path without purging the entry's own shard. *)
  let owner67 = Option.get (Cache.owner c 6 7) in
  let rider = if owner67 = 0 then 1 else 0 in
  let spare = if owner67 = 2 then 3 else 2 in
  (* A second key whose full-liveness owner is not the rider, so the
     recovery handback compaction cannot evict it mid-test. *)
  let deg_src, deg_dst =
    List.find
      (fun (a, b) -> Option.get (Cache.owner c a b) <> rider)
      [ (8, 9); (9, 8); (5, 8); (8, 5); (5, 9); (9, 5); (4, 8); (8, 4) ]
  in
  ignore (find (Some [| 6; rider; 7 |]) 6 7);
  check_int "cold miss recomputes" 1 (stat ()).Cache.recomputed;
  ignore (find (Some [| 6; rider; 7 |]) 6 7);
  check_int "clean hit" 1 (stat ()).Cache.hits;
  Cache.crash c rider;
  check_bool "invariant after crash" true (Cache.invariant_ok c);
  (* The cached path lost its only dominating broker: the next lookup
     repairs it lazily with a path avoiding the outage. *)
  (match find (Some [| 6; spare; 7 |]) 6 7 with
  | Some p -> check_bool "repair avoids the down broker" true (p = [| 6; spare; 7 |])
  | None -> Alcotest.fail "lazy repair returned no path");
  check_int "repaired lazily" 1 (stat ()).Cache.repaired_lazily;
  (* A key computed during the outage is degraded: valid hits are served
     but tallied as degraded service while the outage lasts. *)
  ignore (find (Some [| deg_src; spare; deg_dst |]) deg_src deg_dst);
  check_int "outage miss recomputes" 2 (stat ()).Cache.recomputed;
  ignore (find (Some [| deg_src; spare; deg_dst |]) deg_src deg_dst);
  check_int "served degraded" 1 (stat ()).Cache.served_degraded;
  Cache.recover c rider;
  check_bool "invariant after recovery" true (Cache.invariant_ok c);
  (* Once the outage clears, the degraded entry refreshes on its next hit
     (the lazy analogue of Flush's recovery flush) and then hits clean. *)
  ignore (find (Some [| deg_src; spare; deg_dst |]) deg_src deg_dst);
  check_int "post-outage refresh recomputes" 3 (stat ()).Cache.recomputed;
  ignore (find (Some [| deg_src; spare; deg_dst |]) deg_src deg_dst);
  check_int "clean hit after refresh" 2 (stat ()).Cache.hits;
  check_int "lookup accounting" 7 (stat ()).Cache.lookups

(* Random lookup/crash/recover/invalidate scripts through every strategy
   on small generated graphs, with the paths computed by the real solver
   under the cache's own liveness. After every step the cache invariant
   must hold — for Flush that includes "every cached path is valid" and
   "nothing is degraded while nothing is down", the two facts that let it
   share the validating lookup without ever repairing — every served path
   must be valid, and the outcome tallies must add up to the lookups.
   For Modulo and Ring a model of the cached keys (a lookup stores its
   key while some shard owns it; a crash or recovery drops exactly the
   keys whose owner it changes) must match the cache's size after every
   step and its eviction count after every crash and recovery, and a
   Ring crash must evict exactly the keys the crashed shard held: no
   other key changes owner. A case whose crashes and recoveries never
   evict or flush a Flush entry is discarded as vacuous. *)
type cache_op =
  | Find of int * int
  | Set_down of int * bool  (* broker index: crash (true) or recover *)
  | Invalidate_all

let test_cache_script () =
  let gen =
    QCheck.Gen.(
      int_range 4 24 >>= fun n ->
      int_range 0 40 >>= fun m ->
      int_range 1 5 >>= fun nbrokers ->
      int_bound 1_000_000 >>= fun seed ->
      list_size (int_range 10 60)
        (frequency
           [
             (6, map2 (fun a b -> Find (a, b)) nat nat);
             (4, map2 (fun i d -> Set_down (i, d)) nat bool);
             (1, return Invalidate_all);
           ])
      >|= fun ops -> (n, m, nbrokers, seed, ops))
  in
  let cases = QCheck.Gen.generate ~rand:(Random.State.make [| 19 |]) ~n:300 gen in
  let check (n, m, nbrokers, seed, ops) =
    let g = random_graph (xr seed) ~n ~m in
    let brokers = Array.init nbrokers (fun i -> ((i * 7) + seed) mod n) in
    let is_shard = Broker_core.Connectivity.of_brokers ~n brokers in
    let vw = Broker_graph.View.of_graph g in
    (* Entries a crash evicted or a recovery flushed, or the failing step. *)
    let run strategy =
      let c = Cache.create ~strategy ~seed ~n ~shards:brokers () in
      let down = Array.make n false in
      let live v = is_shard v && not down.(v) in
      let valid p =
        Array.for_all Fun.id
          (Array.init (Array.length p - 1) (fun i -> live p.(i) || live p.(i + 1)))
      in
      let churned = ref 0 in
      let sharded = strategy <> Cache.Flush in
      let model = Hashtbl.create 64 in
      let step op =
        let served_ok =
          match op with
          | Find (a, b) -> (
              let src = a mod n and dst = b mod n in
              let compute () =
                match
                  Broker_core.Dominating.find_dominated_path_view vw ~is_broker:live src dst
                with
                | [||] -> None
                | p -> Some p
              in
              let served = Cache.find c ~compute src dst in
              if Option.is_some (Cache.owner c src dst) then Hashtbl.replace model (src, dst) ();
              match served with Some p -> valid p | None -> true)
          | Set_down (i, d) ->
              let b = brokers.(i mod nbrokers) and s = Cache.stats c in
              let owners =
                Hashtbl.fold (fun (src, dst) () acc -> ((src, dst), Cache.owner c src dst) :: acc) model []
              in
              (if d then Cache.crash else Cache.recover) c b;
              down.(b) <- d;
              let s' = Cache.stats c in
              let evicted = s'.Cache.evicted - s.Cache.evicted in
              churned := !churned + evicted + s'.Cache.flushed - s.Cache.flushed;
              let moved =
                List.filter (fun ((src, dst), o) -> o <> Cache.owner c src dst) owners
              in
              List.iter (fun (key, _) -> Hashtbl.remove model key) moved;
              let held_by_b = List.length (List.filter (fun (_, o) -> o = Some b) owners) in
              (not sharded)
              || evicted = List.length moved
                 && (match strategy with Cache.Ring _ when d -> evicted = held_by_b | _ -> true)
          | Invalidate_all ->
              Cache.invalidate_all c;
              Hashtbl.reset model;
              true
        in
        let s = Cache.stats c in
        served_ok && Cache.invariant_ok c
        && ((not sharded) || Cache.size c = Hashtbl.length model)
        && s.Cache.lookups
           = s.Cache.hits + s.Cache.served_degraded + s.Cache.repaired_lazily + s.Cache.recomputed
        (* Flush never needs the repair branch. *)
        && (strategy <> Cache.Flush || s.Cache.repaired_lazily = 0)
      in
      match List.find_index (fun op -> not (step op)) ops with
      | Some i -> Error (Printf.sprintf "%s: step %d" (Cache.strategy_name strategy) i)
      | None -> Ok !churned
    in
    let flush = run Cache.Flush in
    match
      List.find_map
        (function Error e -> Some e | Ok _ -> None)
        [ flush; run Cache.Modulo; run (Cache.Ring { vnodes = 8 }) ]
    with
    | Some e -> `Fail (Printf.sprintf "n=%d m=%d brokers=%d seed=%d: %s" n m nbrokers seed e)
    | None -> if flush = Ok 0 then `Discard else `Pass
  in
  let outcomes = List.map check cases in
  let count p = List.length (List.filter p outcomes) in
  let passed = count (function `Pass -> true | `Discard | `Fail _ -> false) in
  let discarded = count (function `Discard -> true | `Pass | `Fail _ -> false) in
  let failures =
    List.filter_map (function `Fail f -> Some f | `Pass | `Discard -> None) outcomes
  in
  Printf.printf "%d cache scripts: %d passed, %d failures, %d discarded (no flush eviction)\n"
    (List.length outcomes) passed (List.length failures) discarded;
  List.iter print_endline failures;
  check_int "failing scripts" 0 (List.length failures);
  check_bool "most scripts evict or flush" true (passed > 2 * discarded)

(* Run brokerctl with [args]: its exit code and stderr. *)
let brokerctl args =
  let ((out, inp, err) as proc) =
    Unix.open_process_args_full "../bin/brokerctl.exe"
      (Array.of_list ("brokerctl" :: args))
      (Unix.environment ())
  in
  close_out inp;
  ignore (In_channel.input_all out);
  let msg = In_channel.input_all err in
  match Unix.close_process_full proc with
  | Unix.WEXITED code -> (code, msg)
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> (-1, msg)

(* [brokerctl args] exits [code] with [needle] on stderr. *)
let expect_brokerctl what args ~code ~needle =
  let got, msg = brokerctl args in
  check_int (what ^ ": exit code") code got;
  check_bool (what ^ ": message names the problem") true (contains ~needle msg)

(* Cache flags are checked before the topology is read: the topology
   path below does not exist, so reaching the loader would exit 1. *)
let test_simulate_cache_flags () =
  let expect what flags =
    expect_brokerctl what
      ([ "simulate"; "-t"; "no-such-topology"; "-b"; "no-such-brokers" ] @ flags)
  in
  List.iter
    (fun strategy ->
      expect ("--vnodes with " ^ strategy)
        [ "--cache-strategy"; strategy; "--vnodes"; "8" ]
        ~code:2
        ~needle:"brokerctl simulate: --vnodes applies only to --cache-strategy ring")
    [ "flush"; "modulo" ];
  expect "--vnodes 0" [ "--cache-strategy"; "ring"; "--vnodes"; "0" ] ~code:2
    ~needle:"--vnodes";
  List.iter
    (fun name ->
      expect ("--cache-strategy " ^ name) [ "--cache-strategy"; name ] ~code:124
        ~needle:("invalid value '" ^ name ^ "'"))
    [ "bogus"; "FLUSH" ];
  (* A flag of a mode left off is refused, not silently ignored, before
     the (missing) topology is read; with its mode on it passes. *)
  List.iter
    (fun (mode, flag) ->
      let flag_name = List.hd flag in
      expect (flag_name ^ " without --" ^ mode) flag ~code:2
        ~needle:
          (Printf.sprintf "brokerctl simulate: %s applies only to --%s"
             flag_name mode))
    [
      ("chaos", [ "--mtbf"; "100" ]);
      ("chaos", [ "--mttr"; "5" ]);
      ("chaos", [ "--fault-scenario"; "ixp" ]);
      ("chaos", [ "--no-failover" ]);
      ("chaos", [ "--retries"; "1" ]);
      ("topo-updates", [ "--topo-propagation"; "bgp" ]);
      ("topo-updates", [ "--topo-delay"; "2" ]);
      ("topo-updates", [ "--topo-per-hop"; "0.5" ]);
      ("topo-updates", [ "--topo-at"; "0.25" ]);
    ];
  expect "--mtbf with --chaos" [ "--chaos"; "--mtbf"; "100" ] ~code:1
    ~needle:"no-such-topology";
  expect "--topo-at with --topo-updates"
    [ "--topo-updates"; "4"; "--topo-at"; "0.25" ]
    ~code:1 ~needle:"no-such-topology"

(* Counts and scales out of range are refused before the (missing)
   topology is read; an accepted flag reaches the loader and exits 1. *)
let test_brokerctl_ranges () =
  let out = Filename.temp_file "brokerctl_range" ".txt" in
  let topo = [ "-t"; "no-such-topology" ] and brokers = [ "-b"; "no-such-brokers" ] in
  List.iter
    (fun (args, code, needle) ->
      expect_brokerctl (String.concat " " args) args ~code ~needle)
    [
      ([ "generate"; "--scale"; "0"; "-o"; out ], 2, "brokerctl generate: --scale");
      ([ "generate"; "--scale=1.5"; "-o"; out ], 2, "brokerctl generate: --scale");
      ( [ "evaluate"; "--sources"; "0" ] @ topo @ brokers,
        2, "brokerctl evaluate: --sources must be >= 1" );
      ( [ "resilience"; "--sources"; "0" ] @ topo @ brokers,
        2, "brokerctl resilience: --sources must be >= 1" );
      ( [ "bgp-stats"; "--destinations"; "0" ] @ topo,
        2, "brokerctl bgp-stats: --destinations must be >= 1" );
      ( [ "export-dot"; "--max-vertices"; "0" ] @ topo,
        2, "brokerctl export-dot: --max-vertices must be >= 1" );
      ([ "select"; "-k"; "0" ] @ topo, 2, "brokerctl select: -k must be >= 1");
      ( [ "select"; "-a"; "sc"; "-k"; "5" ] @ topo,
        2, "brokerctl select: -k does not apply to sc" );
      ( [ "select"; "-a"; "ixpb"; "-k"; "5" ] @ topo,
        2, "brokerctl select: -k does not apply to ixpb" );
      ( [ "select"; "-a"; "tier1"; "-k"; "5" ] @ topo,
        2, "brokerctl select: -k does not apply to tier1" );
      ([ "select"; "-a"; "db"; "-k"; "5" ] @ topo, 1, "no-such-topology");
      ([ "select"; "-a"; "sc" ] @ topo, 1, "no-such-topology");
      ( [ "simulate"; "--sessions"; "0" ] @ topo @ brokers,
        2, "brokerctl simulate: --sessions must be >= 1, got 0" );
      ( [ "simulate"; "--sessions=-3" ] @ topo @ brokers,
        2, "brokerctl simulate: --sessions must be >= 1, got -3" );
      ( [ "simulate"; "--capacity-factor"; "0" ] @ topo @ brokers,
        2, "brokerctl simulate: --capacity-factor must be > 0" );
      ( [ "simulate"; "--capacity-factor=-0.5" ] @ topo @ brokers,
        2, "brokerctl simulate: --capacity-factor must be > 0" );
      ( [ "simulate"; "--capacity-factor"; "nan" ] @ topo @ brokers,
        2, "brokerctl simulate: --capacity-factor must be > 0" );
      ( [ "simulate"; "--sessions"; "1"; "--capacity-factor"; "0.5" ] @ topo @ brokers,
        1, "no-such-topology" );
      ( [ "simulate"; "--topo-updates=-3" ] @ topo @ brokers,
        2, "brokerctl simulate: --topo-updates must be >= 0, got -3" );
      ( [ "simulate"; "--topo-updates"; "3"; "--topo-delay"; "nan" ] @ topo @ brokers,
        2, "brokerctl simulate: --topo-delay must be finite and >= 0, got nan" );
      ( [ "simulate"; "--topo-updates"; "3"; "--topo-delay=-1" ] @ topo @ brokers,
        2, "brokerctl simulate: --topo-delay must be finite and >= 0, got -1" );
      ( [ "simulate"; "--topo-updates"; "3"; "--topo-delay"; "inf" ] @ topo @ brokers,
        2, "brokerctl simulate: --topo-delay must be finite and >= 0, got inf" );
      ( [ "simulate"; "--topo-updates"; "3"; "--topo-propagation"; "bgp"; "--topo-per-hop"; "nan" ]
        @ topo @ brokers,
        2, "brokerctl simulate: --topo-per-hop must be finite and >= 0, got nan" );
      ( [ "simulate"; "--topo-updates"; "3"; "--topo-propagation"; "bgp"; "--topo-per-hop=-0.5" ]
        @ topo @ brokers,
        2, "brokerctl simulate: --topo-per-hop must be finite and >= 0, got -0.5" );
      ( [ "simulate"; "--topo-updates"; "3"; "--topo-propagation"; "bgp"; "--topo-per-hop"; "0" ]
        @ topo @ brokers,
        1, "no-such-topology" );
      ( [ "simulate"; "--chaos"; "--mtbf"; "0" ] @ topo @ brokers,
        2, "brokerctl simulate: --mtbf must be > 0, got 0" );
      ( [ "simulate"; "--chaos"; "--mtbf"; "nan" ] @ topo @ brokers,
        2, "brokerctl simulate: --mtbf must be > 0, got nan" );
      ([ "simulate"; "--chaos"; "--mtbf"; "inf" ] @ topo @ brokers, 1, "no-such-topology");
      ( [ "simulate"; "--chaos"; "--mttr=-2" ] @ topo @ brokers,
        2, "brokerctl simulate: --mttr must be finite and > 0, got -2" );
      ( [ "simulate"; "--chaos"; "--mttr"; "inf" ] @ topo @ brokers,
        2, "brokerctl simulate: --mttr must be finite and > 0, got inf" );
      ( [ "simulate"; "--chaos"; "--retries=-1" ] @ topo @ brokers,
        2, "brokerctl simulate: --retries must be >= 0, got -1" );
      ([ "simulate"; "--chaos"; "--retries"; "0" ] @ topo @ brokers, 1, "no-such-topology");
      ( [ "simulate"; "--topo-updates"; "3"; "--topo-at"; "inf" ] @ topo @ brokers,
        2, "brokerctl simulate: --topo-at must be finite, got inf" );
      ( [ "simulate"; "--topo-updates"; "3"; "--topo-at"; "nan" ] @ topo @ brokers,
        2, "brokerctl simulate: --topo-at must be finite, got nan" );
    ];
  Sys.remove out

(* An output file that cannot be created is refused before the work
   that would fill it: before the (missing) topology is read, and before
   [generate] generates one. *)
let test_brokerctl_outputs () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "brokerctl-no-such-dir" in
  check_bool "the output directory is missing" false (Sys.file_exists dir);
  let topo = [ "-t"; "no-such-topology" ] and brokers = [ "-b"; "no-such-brokers" ] in
  List.iter
    (fun (cmd, flag, rest) ->
      let path = Filename.concat dir (cmd ^ ".out") in
      let args = (cmd :: rest) @ [ flag; path ] in
      expect_brokerctl (String.concat " " args) args ~code:1
        ~needle:(Printf.sprintf "brokerctl %s: %s: " cmd path))
    [
      ("generate", "-o", [ "--scale"; "0.004" ]);
      ("select", "-o", topo);
      ("export-dot", "-o", topo);
      ("simulate", "--timeline", topo @ brokers);
    ]

(* A broker list that is missing, holds a non-integer or names a vertex
   outside the topology exits 1 naming the file and line, in every
   command that reads one. *)
let test_brokerctl_broker_files () =
  let topo_path = Filename.temp_file "brokerctl_topo" ".txt" in
  Out_channel.with_open_text topo_path (fun oc ->
      Broker_topo.Dataset.save oc (small_internet ~scale:0.005 ()));
  let list_file lines =
    let path = Filename.temp_file "brokerctl_brokers" ".txt" in
    Out_channel.with_open_text path (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) lines);
    path
  in
  let not_int = list_file [ "3"; "abc" ] and out_of_range = list_file [ "3"; "999999" ] in
  List.iter
    (fun cmd ->
      List.iter
        (fun (brokers, needle) ->
          expect_brokerctl (cmd ^ " " ^ needle)
            [ cmd; "-t"; topo_path; "-b"; brokers ]
            ~code:1 ~needle)
        [
          ("no-such-brokers", "no-such-brokers");
          (not_int, not_int ^ ":2: not an integer");
          (out_of_range, out_of_range ^ ":2: broker id 999999");
        ])
    [ "evaluate"; "resilience"; "simulate" ];
  List.iter Sys.remove [ topo_path; not_int; out_of_range ]

(* ---------- Latency ---------- *)

let test_latency_assign_all_edges () =
  let t = small_internet ~seed:5 ~scale:0.005 () in
  let lat = Latency.assign ~rng:(rng ()) t in
  G.iter_edges t.Broker_topo.Topology.graph (fun u v ->
      let l = Latency.edge_latency lat u v in
      check_bool "positive" true (l > 0.0);
      check_float "symmetric" l (Latency.edge_latency lat v u))

let test_latency_relation_bases () =
  let t = small_internet ~seed:5 ~scale:0.005 () in
  let lat = Latency.assign ~rng:(rng ()) t in
  G.iter_edges t.Broker_topo.Topology.graph (fun u v ->
      let l = Latency.edge_latency lat u v in
      match Broker_topo.Relations.find t.Broker_topo.Topology.relations u v with
      | Some Broker_topo.Node_meta.Ixp_member ->
          check_bool "ixp range" true (l >= 1.0 && l <= 3.0)
      | Some Broker_topo.Node_meta.Peer ->
          check_bool "peer range" true (l >= 2.5 && l <= 7.5)
      | Some Broker_topo.Node_meta.Customer_provider ->
          check_bool "transit range" true (l >= 5.0 && l <= 15.0)
      | None -> ())

let test_latency_non_edge () =
  let t = small_internet ~seed:5 ~scale:0.005 () in
  let lat = Latency.assign ~rng:(rng ()) t in
  let g = t.Broker_topo.Topology.graph in
  (* A vertex is never its own neighbour, and n is out of range. *)
  List.iter
    (fun (u, v) ->
      Alcotest.check_raises
        (Printf.sprintf "edge_latency %d %d" u v)
        (Invalid_argument "Latency.edge_latency: not an edge")
        (fun () -> ignore (Latency.edge_latency lat u v)))
    [ (0, 0); (0, G.n g) ]

let test_latency_path_latency () =
  let t = small_internet ~seed:5 ~scale:0.005 () in
  let lat = Latency.assign ~rng:(rng ()) t in
  let g = t.Broker_topo.Topology.graph in
  (* Pick any 2-hop path via a neighbor. *)
  let u = 0 in
  match neighbor_list g u with
  | v :: _ ->
      check_float "single hop" (Latency.edge_latency lat u v)
        (Latency.path_latency lat [ u; v ]);
      check_float "empty path" 0.0 (Latency.path_latency lat [ u ])
  | [] -> ()

let test_latency_stretch_at_least_one () =
  let t = small_internet ~seed:5 ~scale:0.01 () in
  let g = t.Broker_topo.Topology.graph in
  let n = G.n g in
  let lat = Latency.assign ~rng:(rng ()) t in
  let brokers = Broker_core.Maxsg.run g ~k:20 in
  let is_broker = Broker_core.Connectivity.of_brokers ~n brokers in
  let r = rng () in
  let checked = ref 0 in
  while !checked < 20 do
    let src = Broker_util.Xrandom.int r n and dst = Broker_util.Xrandom.int r n in
    if src <> dst then
      match Latency.stretch lat t ~is_broker ~src ~dst with
      | Some s ->
          check_bool "stretch >= 1" true (s >= 1.0 -. 1e-9);
          incr checked
      | None -> incr checked
  done

let test_latency_min_path_dominated () =
  let t = small_internet ~seed:5 ~scale:0.01 () in
  let g = t.Broker_topo.Topology.graph in
  let n = G.n g in
  let lat = Latency.assign ~rng:(rng ()) t in
  let brokers = Broker_core.Maxsg.run g ~k:20 in
  let is_broker = Broker_core.Connectivity.of_brokers ~n brokers in
  match Latency.min_latency_path lat t ~is_broker ~src:0 ~dst:(n - 1) with
  | None -> () (* endpoints may be outside the covered region *)
  | Some (path, ms) ->
      check_bool "dominated" true
        (Broker_core.Dominating.is_dominated_path ~is_broker path);
      check_float_eps 1e-9 "latency consistent" ms (Latency.path_latency lat path)

let suite =
  [
    ( "sim.event_queue",
      [
        Alcotest.test_case "time order" `Quick test_eq_time_order;
        Alcotest.test_case "stable ties" `Quick test_eq_stable_ties;
        Alcotest.test_case "interleaved" `Quick test_eq_interleaved;
        Alcotest.test_case "refuses NaN and empty reads" `Quick test_eq_refuses;
        Alcotest.test_case "clear" `Quick test_eq_clear;
        Alcotest.test_case "length & high-water" `Quick test_eq_high_water;
        eq_qcheck_sorted;
        eq_qcheck_fifo_ties;
      ] );
    ( "sim.faults",
      [
        Alcotest.test_case "sorted & paired" `Quick test_faults_sorted_and_paired;
        Alcotest.test_case "deterministic & zero rate" `Quick
          test_faults_deterministic_and_zero_rate;
        Alcotest.test_case "invalid" `Quick test_faults_invalid;
        Alcotest.test_case "ixp groups" `Quick test_faults_ixp_groups;
        Alcotest.test_case "thin nested" `Quick test_faults_thin_nested;
      ] );
    ( "sim.workload",
      [
        Alcotest.test_case "sorted & valid" `Quick test_workload_sorted_and_valid;
        Alcotest.test_case "arrival rate" `Quick test_workload_rate;
        Alcotest.test_case "invalid" `Quick test_workload_invalid;
      ] );
    ( "sim.simulator",
      [
        Alcotest.test_case "capacity blocks" `Quick test_sim_capacity_blocks;
        Alcotest.test_case "departures free capacity" `Quick test_sim_departure_frees_capacity;
        Alcotest.test_case "no path" `Quick test_sim_no_path;
        Alcotest.test_case "revenue & hops" `Quick test_sim_revenue_and_hops;
        Alcotest.test_case "employee hops" `Quick test_sim_employee_hops;
        Alcotest.test_case "unsorted rejected" `Quick test_sim_unsorted_rejected;
        Alcotest.test_case "utilization bounds" `Quick test_sim_utilization_bounds;
        Alcotest.test_case "stats_window timelines" `Quick
          test_sim_stats_window;
        sim_qcheck_option_matrix;
        Alcotest.test_case "stats digest" `Quick test_sim_stats_digest;
        Alcotest.test_case "words per session" `Quick test_sim_alloc_per_session;
      ] );
    ( "sim.chaos",
      [
        Alcotest.test_case "validates config" `Quick test_sim_validates_config;
        Alcotest.test_case "refuses negative durations" `Quick
          test_sim_refuses_negative_duration;
        Alcotest.test_case "failover reroutes" `Quick test_sim_failover_reroutes;
        Alcotest.test_case "drop without alternate" `Quick test_sim_drop_without_alternate;
        Alcotest.test_case "downtime in brokers order" `Quick test_sim_downtime_order;
        Alcotest.test_case "retry admits after backoff" `Quick
          test_sim_retry_admits_after_backoff;
        Alcotest.test_case "breaker sheds" `Quick test_sim_breaker_sheds;
        Alcotest.test_case "deterministic" `Quick test_sim_chaos_deterministic;
      ] );
    ( "sim.cache",
      [
        Alcotest.test_case "validation" `Quick test_cache_validation;
        Alcotest.test_case "phased churn schedule" `Quick test_faults_phased;
        Alcotest.test_case "flush reverse-index invariant" `Quick
          test_cache_flush_invariant;
        Alcotest.test_case "entry tables" `Quick test_cache_tables;
        cache_qcheck_remap;
        Alcotest.test_case "degraded outcomes" `Quick
          test_cache_degraded_outcomes;
        Alcotest.test_case "script invariants" `Quick test_cache_script;
        Alcotest.test_case "simulate cache flags" `Quick
          test_simulate_cache_flags;
        Alcotest.test_case "brokerctl flag ranges" `Quick test_brokerctl_ranges;
        Alcotest.test_case "brokerctl output files" `Quick test_brokerctl_outputs;
        Alcotest.test_case "brokerctl broker files" `Quick
          test_brokerctl_broker_files;
      ] );
    ( "routing.latency",
      [
        Alcotest.test_case "assign all edges" `Quick test_latency_assign_all_edges;
        Alcotest.test_case "relation bases" `Quick test_latency_relation_bases;
        Alcotest.test_case "non-edge rejected" `Quick test_latency_non_edge;
        Alcotest.test_case "path latency" `Quick test_latency_path_latency;
        Alcotest.test_case "stretch >= 1" `Quick test_latency_stretch_at_least_one;
        Alcotest.test_case "min path dominated" `Quick test_latency_min_path_dominated;
      ] );
  ]
